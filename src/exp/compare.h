// Differential observability: a structural comparator for every artifact
// schema the repo emits — `cmvrp-stream-v6` run reports (stream/report.h),
// `cmvrp-stats-v1` JSONL streams (obs/snapshot.h), `cmvrp-bench-v1` suite
// runs (exp/harness.h) and Chrome trace-event span exports
// (obs/span_export.h). Each key is compared by the class its artifact's
// table declares (obs/field.h): an identity mismatch aborts with a
// check_error (the runs are not comparable), deterministic values must
// match exactly (a difference is *drift*), wall readings are
// ratio-compared in their row's direction with the noise rules below, and
// context differences are only reported.
//
// The report serializes as schema `cmvrp-diff-v1` and maps onto the
// CLI-wide exit convention: 0 clean, 1 drift/regression (or unreadable
// input), 2 usage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/field.h"
#include "util/json.h"

namespace cmvrp {

inline constexpr char kDiffSchema[] = "cmvrp-diff-v1";

// A wall regression by more than this factor warns.
inline constexpr double kWallWarnRatio = 1.25;
// Millisecond readings under this floor on both sides are scheduler noise.
inline constexpr double kMinWallMs = 5.0;
// A bench `time_ms` mean shift within this many of its larger stddev is
// noise, and so is a per-iteration timing's slowdown by a factor within
// 1 + kNoiseSigmas × stddev / mean of its case.
inline constexpr double kNoiseSigmas = 3.0;

enum class CompareKind { kAuto, kStream, kStats, kBench, kSpans };

// "auto" | "stream" | "stats" | "bench" | "spans".
const char* compare_kind_name(CompareKind kind);

// Parses a --kind flag value; throws usage_error on anything else.
CompareKind parse_compare_kind(const std::string& name);

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
  // Wall regressions by more than this factor fail (0: wall never fails,
  // the right default where wall time is warn-only evidence, not a gate).
  double fail_ratio = 0.0;
  // Keys skipped everywhere (matched by exact name at any depth): the
  // per-call escape hatch for fields two runs may differ on by design.
  std::vector<std::string> ignore;
};

struct CompareReport {
  CompareKind kind = CompareKind::kAuto;  // resolved, never kAuto
  std::uint64_t fields_compared = 0;
  std::uint64_t deterministic_fields = 0;
  std::uint64_t wall_fields = 0;
  std::uint64_t drift = 0;       // deterministic mismatches
  std::uint64_t warns = 0;       // wall regressions past kWallWarnRatio
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
