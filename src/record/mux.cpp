#include "record/mux.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace cmvrp {

TraceMux::TraceMux(int dim, std::size_t chunk_jobs)
    : dim_(dim), chunk_jobs_(chunk_jobs) {
  CMVRP_CHECK_MSG(chunk_jobs_ >= 1, "mux chunk must hold at least one job");
}

bool TraceMux::Source::refill() {
  if (head < count) return true;
  head = 0;
  count = reader->next_batch(buffer.data(), buffer.size());
  return count > 0;
}

void TraceMux::add_source(const std::string& path) {
  Source source;
  source.reader = std::make_unique<TraceReader>(path);
  CMVRP_CHECK_MSG(source.reader->dim() == dim_,
                  "mux source dim " << source.reader->dim()
                                    << " does not match mux dim " << dim_
                                    << ": " << path);
  CMVRP_CHECK_MSG(!source.reader->has_failure_events(),
                  "mux sources must be pure job streams; trace carries "
                  "silent-done failure events: "
                      << path);
  source.buffer.resize(chunk_jobs_);
  sources_.push_back(std::move(source));
}

bool TraceMux::merges_before(const Job& a, const Job& b) {
  if (a.index != b.index) return a.index < b.index;
  return a.position < b.position;
}

void TraceMux::ingest(StreamEngine& engine) {
  CMVRP_CHECK_MSG(engine.dim() == dim_,
                  "mux dim " << dim_ << " does not match engine dim "
                             << engine.dim());
  // Live sources, by index into sources_. The pick loop scans linearly
  // (k is small); ties keep the lowest slot, which cannot affect the
  // merged sequence because tied heads are byte-identical records.
  std::vector<std::size_t> live;
  for (std::size_t s = 0; s < sources_.size(); ++s)
    if (sources_[s].refill()) live.push_back(s);

  std::vector<Job> out(chunk_jobs_);
  std::size_t n = 0;
  while (!live.empty()) {
    std::size_t pick = 0;
    for (std::size_t i = 1; i < live.size(); ++i) {
      if (merges_before(sources_[live[i]].front(),
                        sources_[live[pick]].front()))
        pick = i;
    }
    Source& src = sources_[live[pick]];
    // Re-index: the merged stream gets fresh arrival indices 0..N-1.
    out[n].position = src.front().position;
    out[n].index = static_cast<std::int64_t>(merged_++);
    ++n;
    ++src.head;
    if (!src.refill()) live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    if (n == out.size()) {
      engine.ingest(out.data(), n);
      n = 0;
    }
  }
  if (n > 0) engine.ingest(out.data(), n);
}

}  // namespace cmvrp
