// cmvrp-trace: the binary, little-endian, mmap-able trace formats.
//
// Two versions share one 32-byte header (all integers little-endian,
// regardless of host endianness):
//   offset  size  field
//        0     8  magic      "cmvrptrc"
//        8     4  version    (1 or 2)
//       12     4  dim        (1 .. Point::kMaxDim)
//       16     8  job_count  (v1: jobs; v2: records of any event kind)
//       24     8  flags      (v1: must be 0; v2: kTraceKnownFlagsV2 bits)
//
// v1 records (trace_record_size(dim, 1) bytes) are pure arrivals:
//   (dim + 1) int64 fields — the dim coordinates, then the arrival index.
//
// v2 records (trace_record_size(dim, 2) bytes) are *events*: an event
// kind word extends the arrival record with failure-injection markers and
// serving outcomes, so one format carries generator streams, adversarial
// failure streams, and the engine's audit trail:
//   offset        size   field
//        0           4   kind    (0 arrival, 1 silent-done, 2 outcome)
//        4           4   aux     (outcome: 0 failed / 1 served / 2 shed /
//                                 3 rejected; else 0)
//        8       8*dim   coords  (arrival/outcome: job position;
//                                 silent-done: the home vertex going dark)
//   8 + 8*dim        8   index   (arrival index; 0 for silent-done)
//  16 + 8*dim    8*dim   corner  (outcome: assigned cube corner; else 0)
//
// Fixed-width records make both versions seekable and mmap-friendly:
// record k starts at byte kTraceHeaderSize + k * trace_record_size(dim,
// version), so a reader can decode any bounded window of an arbitrarily
// large trace without touching the rest of the file. TraceWriter streams
// records and patches job_count (and, for v2, the flags word) on close,
// so traces can be produced without ever knowing (or materializing) the
// stream length up front.
#pragma once

#include <cstddef>
#include <cstdint>

#include "grid/point.h"
#include "util/endian.h"
#include "workload/generators.h"

namespace cmvrp {

inline constexpr unsigned char kTraceMagic[8] = {'c', 'm', 'v', 'r',
                                                 'p', 't', 'r', 'c'};
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::uint32_t kTraceVersionV2 = 2;
inline constexpr std::size_t kTraceHeaderSize = 32;

// Byte offsets of the header fields (for error messages and tests).
inline constexpr std::size_t kTraceMagicOffset = 0;
inline constexpr std::size_t kTraceVersionOffset = 8;
inline constexpr std::size_t kTraceDimOffset = 12;
inline constexpr std::size_t kTraceCountOffset = 16;
inline constexpr std::size_t kTraceFlagsOffset = 24;

// v2 header flags. v1 traces must have a zero flags word; v2 traces may
// set any subset of the known bits (the writer patches them on close).
inline constexpr std::uint64_t kTraceFlagFailureEvents = 1ULL << 0;
inline constexpr std::uint64_t kTraceFlagOutcomes = 1ULL << 1;
inline constexpr std::uint64_t kTraceKnownFlagsV2 =
    kTraceFlagFailureEvents | kTraceFlagOutcomes;

// Bytes per record. v1: dim coordinates plus the arrival index. v2: the
// event word, coordinates, arrival index, and the outcome cube corner.
inline constexpr std::size_t trace_record_size(int dim,
                                               std::uint32_t version = 1) {
  return version >= kTraceVersionV2
             ? 16 + 2 * static_cast<std::size_t>(dim) * 8
             : static_cast<std::size_t>(dim + 1) * sizeof(std::int64_t);
}

struct TraceHeader {
  std::uint32_t version = kTraceVersion;
  std::uint32_t dim = 0;
  std::uint64_t job_count = 0;
  std::uint64_t flags = 0;
};

inline void encode_trace_header(const TraceHeader& h,
                                unsigned char out[kTraceHeaderSize]) {
  for (std::size_t i = 0; i < sizeof(kTraceMagic); ++i) out[i] = kTraceMagic[i];
  store_le32(out + kTraceVersionOffset, h.version);
  store_le32(out + kTraceDimOffset, h.dim);
  store_le64(out + kTraceCountOffset, h.job_count);
  store_le64(out + kTraceFlagsOffset, h.flags);
}

// --- v2 events --------------------------------------------------------------

enum class TraceEventKind : std::uint32_t {
  kArrival = 0,     // a job arrival (the v1 record, as an event)
  kSilentDone = 1,  // failure injection: the vehicle at `job.position`
                    // (its home vertex) goes done without initiating
  kOutcome = 2,     // serving outcome of `job`: served/failed + corner
};

inline constexpr std::uint32_t kTraceMaxEventKind =
    static_cast<std::uint32_t>(TraceEventKind::kOutcome);

// Outcome aux word: how the arrival ended. 0/1 are the historical
// failed/served pair; 2/3 mark admission drops (jobs a bounded backlog
// never let reach the protocol — see stream/shard.h). Readers validate
// only the kind word, so pre-admission consumers decode shed/rejected
// records as non-served outcomes — a safe reading, since neither was
// served.
inline constexpr std::uint32_t kTraceOutcomeFailed = 0;
inline constexpr std::uint32_t kTraceOutcomeServed = 1;
inline constexpr std::uint32_t kTraceOutcomeShed = 2;
inline constexpr std::uint32_t kTraceOutcomeRejected = 3;
inline constexpr std::uint32_t kTraceMaxOutcomeAux = kTraceOutcomeRejected;

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kArrival;
  bool served = false;     // aux == kTraceOutcomeServed, for 2-way consumers
  std::uint32_t aux = 0;   // outcome: kTraceOutcome* word; else 0
  Job job;              // position + arrival index (silent-done: home, 0)
  Point corner;         // outcome: assigned cube corner; else origin
};

inline TraceEvent arrival_event(const Job& job) {
  TraceEvent e;
  e.kind = TraceEventKind::kArrival;
  e.job = job;
  e.corner = Point::origin(job.position.dim());
  return e;
}

inline TraceEvent silent_done_event(const Point& home) {
  TraceEvent e;
  e.kind = TraceEventKind::kSilentDone;
  e.job = Job{home, 0};
  e.corner = Point::origin(home.dim());
  return e;
}

inline TraceEvent outcome_event(const Job& job, bool served,
                                const Point& corner) {
  TraceEvent e;
  e.kind = TraceEventKind::kOutcome;
  e.served = served;
  e.aux = served ? kTraceOutcomeServed : kTraceOutcomeFailed;
  e.job = job;
  e.corner = corner;
  return e;
}

// Outcome event with an explicit aux word (shed / rejected drops).
inline TraceEvent outcome_event_aux(const Job& job, std::uint32_t aux,
                                    const Point& corner) {
  TraceEvent e;
  e.kind = TraceEventKind::kOutcome;
  e.aux = aux;
  e.served = aux == kTraceOutcomeServed;
  e.job = job;
  e.corner = corner;
  return e;
}

// Encodes one v2 record; `out` must hold trace_record_size(dim, 2) bytes
// and every point in `e` must already have dimension `dim`.
inline void encode_trace_event(const TraceEvent& e, int dim,
                               unsigned char* out) {
  store_le32(out, static_cast<std::uint32_t>(e.kind));
  store_le32(out + 4, e.aux);
  for (int i = 0; i < dim; ++i)
    store_le_i64(out + 8 + static_cast<std::size_t>(i) * 8, e.job.position[i]);
  store_le_i64(out + 8 + static_cast<std::size_t>(dim) * 8, e.job.index);
  for (int i = 0; i < dim; ++i)
    store_le_i64(out + 16 + static_cast<std::size_t>(dim + i) * 8,
                 e.corner[i]);
}

// Decodes one v2 record. The kind word is NOT validated here; the reader
// rejects unknown kinds with the record's byte offset.
inline TraceEvent decode_trace_event(const unsigned char* record, int dim) {
  TraceEvent e;
  e.kind = static_cast<TraceEventKind>(load_le32(record));
  e.aux = load_le32(record + 4);
  e.served = e.aux == kTraceOutcomeServed;
  Point p = Point::origin(dim);
  for (int i = 0; i < dim; ++i)
    p[i] = load_le_i64(record + 8 + static_cast<std::size_t>(i) * 8);
  e.job.position = p;
  e.job.index = load_le_i64(record + 8 + static_cast<std::size_t>(dim) * 8);
  Point c = Point::origin(dim);
  for (int i = 0; i < dim; ++i)
    c[i] = load_le_i64(record + 16 + static_cast<std::size_t>(dim + i) * 8);
  e.corner = c;
  return e;
}

}  // namespace cmvrp
