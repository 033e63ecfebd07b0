// Differential observability: a structural comparator for every artifact
// schema the repo emits —
//
//   * `cmvrp-stream-v5` run reports   (tools/cmvrp_cli stream/trace)
//   * `cmvrp-stats-v1`  JSONL streams (obs/snapshot.h)
//   * `cmvrp-bench-v1`  suite runs    (exp/harness.h)
//   * Chrome trace-event span exports (obs/span_export.h)
//
// Instead of grepping fields in and out of a diff, every field is
// classified by *rule* and each class has its own comparison semantics:
//
//   identity       schema ids, seeds, config echoes — must agree outright
//                  or the two artifacts are not comparable runs; the
//                  comparison aborts with a check_error naming the field
//                  (CLI exit 1, a data failure).
//   deterministic  everything not matched by another rule: counts,
//                  digests, set hashes, counter totals, cascade
//                  histograms, span payloads. Must match exactly; any
//                  difference is *drift* and fails the comparison.
//   wall           keys ending `_ms`/` ms`, starting `wall_`, rate keys
//                  (`jobs_per_sec`, `.../sec`, `speedup...`) — measured
//                  time. Ratio-compared in the regression direction
//                  (slower / fewer jobs per second = worse) against
//                  configurable warn/fail thresholds, with a noise floor
//                  for sub-millisecond readings and a RunningStats-aware
//                  margin where the artifact carries a stddev
//                  (bench `time_ms` blocks).
//   context        run-shape fields that two comparable runs may
//                  legitimately disagree on (thread count, batch size,
//                  batch count, `hw threads`, bench options and notes).
//                  Reported informationally, never failing —
//                  this is what lets a threads-1 report compare clean
//                  against a threads-8 report of the same seed.
//
// The report serializes as schema `cmvrp-diff-v1` and maps onto the
// CLI-wide exit convention: 0 clean, 1 drift/regression (or unreadable
// input), 2 usage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace cmvrp {

inline constexpr char kDiffSchema[] = "cmvrp-diff-v1";

enum class CompareKind { kAuto, kStream, kStats, kBench, kSpans };

// "auto" | "stream" | "stats" | "bench" | "spans".
const char* compare_kind_name(CompareKind kind);

// Parses a --kind flag value; throws usage_error on anything else.
CompareKind parse_compare_kind(const std::string& name);

enum class FieldClass { kIdentity, kDeterministic, kWall, kContext };
const char* field_class_name(FieldClass cls);

enum class FieldVerdict { kMatch, kInfo, kWarn, kFail };
const char* field_verdict_name(FieldVerdict verdict);

// One per-field verdict worth reporting (mismatches, warnings, and
// context differences; clean matches are only counted, not listed).
struct FieldDiff {
  std::string path;  // dotted into the artifact, e.g. "final.msg_queries"
  FieldClass cls = FieldClass::kDeterministic;
  FieldVerdict verdict = FieldVerdict::kMatch;
  std::string a;       // rendered value in artifact A ("" when absent)
  std::string b;       // rendered value in artifact B ("" when absent)
  double ratio = 0.0;  // wall fields: regression factor (>= 1 is worse)
  std::string note;
};

struct CompareOptions {
  // Wall-field thresholds, as regression factors (B worse than A by more
  // than this). fail_ratio == 0 disables wall *failures* entirely —
  // the right default for 1-core CI containers where wall time is
  // warn-only evidence, not a gate.
  double warn_ratio = 1.25;
  double fail_ratio = 0.0;
  // Millisecond readings (keys ending `_ms` or ` ms`) where both sides
  // are below this floor are pure scheduler noise; they count as
  // compared-and-clean. Other wall keys are never floored.
  double min_wall_ms = 5.0;
  // Bench `time_ms` blocks carry RunningStats (mean/stddev/reps): a mean
  // shift within `noise_sigmas` of the larger stddev is noise, not a
  // regression, regardless of the ratio. A case's per-iteration timings
  // (`us/iter`, `ns/op`) get the same margin as a ratio: a slowdown by a
  // factor within 1 + noise_sigmas × stddev / mean is clean. One rep has
  // no spread, so only multi-rep runs have a margin.
  double noise_sigmas = 3.0;
  // Keys skipped everywhere (matched by exact name at any depth) — the
  // per-call escape hatch for legitimately incomparable fields, e.g.
  // `cube_slots` in the record-vs-audit round trip where the two runs
  // size the slot table from different geometry by design.
  std::vector<std::string> ignore;
};

struct CompareReport {
  CompareKind kind = CompareKind::kAuto;  // resolved, never kAuto
  std::uint64_t fields_compared = 0;
  std::uint64_t deterministic_fields = 0;
  std::uint64_t wall_fields = 0;
  std::uint64_t drift = 0;       // deterministic mismatches
  std::uint64_t warns = 0;       // wall regressions past warn_ratio
  std::uint64_t wall_fails = 0;  // wall regressions past fail_ratio
  std::uint64_t context_diffs = 0;
  // Verdicts past the recording cap are counted here instead of listed,
  // so a byte-shifted span trace cannot balloon the diff report.
  std::uint64_t diffs_truncated = 0;
  std::vector<FieldDiff> diffs;  // every non-kMatch verdict, in walk order
  // Worst wall regression seen (factor >= 1; 1.0 = nothing regressed).
  std::string worst_wall_field;
  double worst_wall_ratio = 1.0;

  bool clean() const { return drift == 0 && wall_fails == 0; }
  // 0 clean, 1 drift or wall failure. (Usage errors never reach a
  // report — they throw usage_error before comparison starts.)
  int exit_code() const { return clean() ? 0 : 1; }

  // The cmvrp-diff-v1 document. `a`/`b` label the two inputs (paths or
  // synthetic names); they are echoed, not re-read.
  Json to_json(const std::string& a, const std::string& b) const;
};

// Sniffs which artifact schema `text` holds: a JSON array => spans, an
// object => by its "schema" field, JSONL with a cmvrp-stats header =>
// stats. Throws check_error (exit 1) on empty or unrecognizable input,
// naming `label` and the parse offset where applicable.
CompareKind detect_compare_kind(const std::string& text,
                                const std::string& label);

// Compares two artifact texts. kAuto detects the kind from A and
// requires B to match. Throws check_error on unparseable input or an
// identity-field mismatch (both exit 1 at the CLI); returns a report
// otherwise. `a_label`/`b_label` name the inputs in messages.
CompareReport compare_artifacts(const std::string& a_text,
                                const std::string& b_text, CompareKind kind,
                                const CompareOptions& options,
                                const std::string& a_label = "A",
                                const std::string& b_label = "B");

// Already-parsed entry points (used by `cmvrp_cli bench --baseline`,
// which holds the fresh suite document in memory, and by tests).
CompareReport compare_stream_reports(const Json& a, const Json& b,
                                     const CompareOptions& options);
CompareReport compare_bench_runs(const Json& a, const Json& b,
                                 const CompareOptions& options);
CompareReport compare_span_traces(const Json& a, const Json& b,
                                  const CompareOptions& options);
CompareReport compare_stats_streams(const std::string& a_text,
                                    const std::string& b_text,
                                    const CompareOptions& options,
                                    const std::string& a_label = "A",
                                    const std::string& b_label = "B");

}  // namespace cmvrp
