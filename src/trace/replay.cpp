#include "trace/replay.h"

#include "util/check.h"

namespace cmvrp {
namespace {

void ingest_events(TraceReader& reader, StreamEngine& engine,
                   std::vector<Job>& chunk) {
  // Event-aware path: arrivals buffer into the chunk; a silent-done
  // marker flushes the chunk (so the injection lands between exactly the
  // arrivals it sat between in the trace) and then marks the home.
  const TraceEventKind job_kind = reader.has_outcomes()
                                      ? TraceEventKind::kOutcome
                                      : TraceEventKind::kArrival;
  std::vector<TraceEvent> events(chunk.size());
  std::size_t pending = 0;
  while (const std::size_t n =
             reader.next_events(events.data(), events.size())) {
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = events[i];
      if (e.kind == TraceEventKind::kSilentDone) {
        if (pending > 0) {
          engine.ingest(chunk.data(), pending);
          pending = 0;
        }
        engine.inject_silent_done(e.job.position);
        continue;
      }
      if (e.kind != job_kind) continue;
      chunk[pending++] = e.job;
      if (pending == chunk.size()) {
        engine.ingest(chunk.data(), pending);
        pending = 0;
      }
    }
  }
  if (pending > 0) engine.ingest(chunk.data(), pending);
}

}  // namespace

void ingest_trace(TraceReader& reader, StreamEngine& engine,
                  std::vector<Job>& chunk) {
  CMVRP_CHECK_MSG(reader.dim() == engine.dim(),
                  "trace dim " << reader.dim() << " does not match engine dim "
                               << engine.dim() << ": " << reader.path());
  if (reader.has_failure_events()) {
    ingest_events(reader, engine, chunk);
    return;
  }
  while (true) {
    const std::size_t n = reader.next_batch(chunk.data(), chunk.size());
    if (n == 0) break;
    engine.ingest(chunk.data(), n);
  }
}

TraceReplayer::TraceReplayer(int dim, const StreamConfig& config)
    : engine_(dim, config),
      chunk_(static_cast<std::size_t>(config.batch_size)) {}

void TraceReplayer::set_observer(StreamObserver* observer) {
  engine_.set_observer(observer);
}

StreamResult TraceReplayer::replay(TraceReader& reader) {
  ingest(reader);
  return finish();
}

}  // namespace cmvrp
