#include "obs/prof.h"

#include <algorithm>

#include "util/check.h"
#include "util/flat_map.h"
#include "util/hash.h"

namespace cmvrp {

ProfReport profile_spans(const std::vector<CubeSpans>& cubes,
                         std::size_t top_k) {
  ProfReport report;
  report.cubes = cubes.size();
  std::vector<CompProfile> profiles;

  for (const CubeSpans& cube : cubes) {
    report.events += cube.events.size();
    // InitTags are unique within one cube, so grouping is per cube:
    // first pass creates a profile per start record, second pass
    // accumulates everything tagged with that computation.
    FlatMap<std::uint64_t, std::size_t, U64Hash> index;
    for (const SpanEvent& e : cube.events) {
      if (static_cast<SpanKind>(e.kind) != SpanKind::kCompStart) continue;
      CMVRP_CHECK_MSG(e.comp != 0, "comp_start record without an InitTag");
      if (index.find(e.comp) != nullptr) continue;  // ring wrap duplicate
      index[e.comp] = profiles.size();
      CompProfile p;
      p.pid = cube.pid;
      p.comp = e.comp;
      p.start = e.clock;
      profiles.push_back(p);
    }
    for (const SpanEvent& e : cube.events) {
      const std::size_t* slot =
          e.comp == 0 ? nullptr : index.find(e.comp);
      CompProfile* p = slot == nullptr ? nullptr : &profiles[*slot];
      switch (static_cast<SpanKind>(e.kind)) {
        case SpanKind::kCompStart:
          break;
        case SpanKind::kCompFinish:
          if (p != nullptr) {
            p->finished = true;
            p->found = e.aux != 0;
            p->finish = e.clock;
            p->critical_path = e.clock - p->start;
          }
          break;
        case SpanKind::kSend:
          if (e.aux == 0) {  // query
            ++report.query_sends;
            if (report.breadth_by_hop.size() <=
                static_cast<std::size_t>(e.hop))
              report.breadth_by_hop.resize(e.hop + 1, 0);
            ++report.breadth_by_hop[e.hop];
            if (p != nullptr) {
              ++report.attributed_queries;
              ++p->queries;
              if (e.hop > p->depth) p->depth = e.hop;
            }
          }
          break;
        case SpanKind::kDeliver:
          break;
        case SpanKind::kRelay:
          if (p != nullptr) ++p->relays;
          break;
        case SpanKind::kCascadeStep:
          ++report.replacements;
          if (p != nullptr) ++p->cascade_steps;
          break;
        case SpanKind::kServeBegin:
        case SpanKind::kServeEnd:
          break;
      }
    }
  }

  report.comps = profiles.size();
  for (const CompProfile& p : profiles) {
    if (p.finished) {
      ++report.comps_finished;
      CMVRP_CHECK_MSG(p.critical_path >= 0,
                      "computation finished before it started (clock skew in "
                      "the trace?)");
      report.critical.add(p.critical_path);
    }
    if (p.found) ++report.comps_found;
    report.depth.add(static_cast<std::int64_t>(p.depth));
    report.flood_width.add(static_cast<std::int64_t>(p.queries));
  }

  // Top-k widest floods: query count desc, then (pid, comp) asc so the
  // report never depends on grouping order.
  std::sort(profiles.begin(), profiles.end(),
            [](const CompProfile& a, const CompProfile& b) {
              if (a.queries != b.queries) return a.queries > b.queries;
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.comp < b.comp;
            });
  if (profiles.size() > top_k) profiles.resize(top_k);
  report.widest = std::move(profiles);
  return report;
}

}  // namespace cmvrp
