// Bounded-memory replay of a job trace into the stream engine.
//
// ingest_trace drives StreamEngine::ingest() chunk by chunk straight off
// the mapping: the only job storage is one reusable chunk buffer, so
// peak memory is O(batch × threads) — independent of trace length.
// Because the engine's results are batch-invariant (stream/engine.h),
// replaying a trace is bit-identical to serving the same jobs from one
// in-memory vector, at every thread count; tests/trace_test.cpp enforces
// exactly that equivalence.
//
// v2 traces replay by event kind: job-bearing records stream into the
// engine as arrivals, and silent-done failure-injection markers flush
// the pending chunk and then mark the named home vertex silent-done
// (StreamEngine::inject_silent_done) — so the injection lands between
// exactly the arrivals it sat between in the trace, at every thread
// count and batch size.
#pragma once

#include <cstddef>
#include <vector>

#include "stream/engine.h"
#include "trace/reader.h"

namespace cmvrp {

// Streams `reader` from its current cursor to end of trace into
// `engine` without finishing it, `chunk.size()` records at a time
// (chunk must be non-empty). The reader's dim must match the engine's.
void ingest_trace(TraceReader& reader, StreamEngine& engine,
                  std::vector<Job>& chunk);

// An engine plus its chunk buffer: ingest_trace with the engine's batch
// size as the chunk, so replay adds no buffering beyond what one ingest
// batch already costs.
class TraceReplayer {
 public:
  TraceReplayer(int dim, const StreamConfig& config);

  // Forwarded to the engine (e.g. an OutcomeRecorder; replay + record
  // re-audits a trace).
  void set_observer(StreamObserver* observer);

  // Replays `reader` from its current cursor to end of trace and
  // finishes the engine.
  StreamResult replay(TraceReader& reader);

  // Streams one trace segment without finishing (incremental front ends).
  void ingest(TraceReader& reader) { ingest_trace(reader, engine_, chunk_); }

  StreamResult finish() { return engine_.finish(); }

  std::size_t chunk_jobs() const { return chunk_.size(); }

  // The underlying engine, for read-only post-run access (span_sources()
  // after replay()).
  const StreamEngine& engine() const { return engine_; }

 private:
  StreamEngine engine_;
  std::vector<Job> chunk_;  // the only job buffer, reused every batch
};

}  // namespace cmvrp
