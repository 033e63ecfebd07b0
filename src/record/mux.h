// TraceMux: deterministic k-way merge of several traces into one engine.
//
// Multi-source arrival merging (the multi-depot / multi-stream settings
// of the CVRP literature): k traces — possibly written by different
// generators, but sharing one dimension ℓ — are merged by ascending
// arrival index into a single stream and ingested into the caller's
// StreamEngine, which the caller observes and finishes.
// Merged arrivals are re-indexed 0..N-1 in merge order, so the result's
// served/failed index sets refer to the merged arrival sequence.
//
// Determinism: the merge comparator orders source heads by (arrival
// index, position lexicographic); when both tie the competing records
// are byte-identical, so whichever source advances first cannot change
// the merged position sequence. The merged outcome is therefore
// bit-identical across thread counts, batch sizes, AND the order the
// source files were added — the engine's fold contract extended to
// multi-trace serving (tests/record_test.cpp enforces all three axes,
// against an in-memory merge_streams reference).
//
// Memory: each source is cursored through TraceReader::next_batch with a
// chunk of chunk_jobs jobs, and merged jobs flush into the engine one
// chunk at a time — O((k + threads) × chunk) peak, independent of trace
// lengths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/engine.h"
#include "trace/reader.h"

namespace cmvrp {

class TraceMux {
 public:
  // Sources are read, and merged jobs flushed, chunk_jobs at a time
  // (>= 1; front ends pass the engine's batch size).
  TraceMux(int dim, std::size_t chunk_jobs);

  // Opens and validates one source trace; throws check_error when the
  // file is malformed or its dimension does not match the mux's.
  // Sources carrying v2 silent-done events are rejected: injection order
  // is only meaningful within one stream, not across a merge.
  void add_source(const std::string& path);

  std::size_t source_count() const { return sources_.size(); }
  std::uint64_t jobs_merged() const { return merged_; }

  // Merges every source to exhaustion into `engine` (whose dim must be
  // the mux's) without finishing it. An observer attached to the engine
  // sees the merged run (an OutcomeRecorder: a merged audit trail).
  void ingest(StreamEngine& engine);

 private:
  struct Source {
    std::unique_ptr<TraceReader> reader;
    std::vector<Job> buffer;
    std::size_t head = 0;
    std::size_t count = 0;
    bool refill();  // returns false at end of trace
    const Job& front() const { return buffer[head]; }
  };

  // True when a's head record merges before b's.
  static bool merges_before(const Job& a, const Job& b);

  int dim_;
  std::size_t chunk_jobs_;
  std::vector<Source> sources_;
  std::uint64_t merged_ = 0;
};

}  // namespace cmvrp
