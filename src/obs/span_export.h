// Span trace exporters: Chrome trace-event JSON and the binary spool.
//
// Both exporters walk the same input — one (corner, pid, recorder)
// source per cube, in ascending-corner order — and emit only
// deterministic bytes, so an exported trace diffs clean across thread
// counts and batch sizes. The Chrome export's one exception is the event
// span_export_fields declares wall: the run's duration, metadata for
// humans reading the trace, alone on the line after the opening `[`.
//
// Chrome trace-event mapping (load the JSON in Perfetto or
// chrome://tracing):
//   pid  = the cube's slot in the engine's CubeSlotTable (stable across
//          runs of one scenario; uncovered cubes get 1'000'000 + their
//          ascending-corner ordinal)
//   tid  = vehicle pair slot + 1 (tid 0 carries anchors with no vehicle)
//   ts   = cube protocol clock (microseconds to the viewer — protocol
//          ticks to us)
//   "b"/"e" async pairs = one Phase I diffusing computation (id = the
//          packed InitTag)
//   "B"/"E" duration pairs on tid 0 = serve_job begin/end
//   "s"/"f" flow pairs = one message send -> delivery (id = the
//          recorder's per-cube flow ordinal), drawing the query flood's
//          fan-out arrows
//   "i" instants = relay hops and replacement-cascade steps
//   "M" metadata = process/thread naming (cube corner, vehicle pair)
//
// The binary spool ("cmvrpspn") is the compact form: little-endian,
// fixed-width records, one pair-registry + record block per cube.
// Readers reject malformed files with the byte offset (same contract as
// trace/format.h readers).
//
// Each format has its reader here, beside its writer: read_span_spool and
// read_chrome_trace both return a SpanSpool, which is what `cmvrp_cli
// prof` (obs/prof.h) analyzes.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "grid/point.h"
#include "obs/field.h"
#include "obs/span.h"

namespace cmvrp {

inline constexpr unsigned char kSpanSpoolMagic[8] = {'c', 'm', 'v', 'r',
                                                     'p', 's', 'p', 'n'};
inline constexpr std::uint32_t kSpanSpoolVersion = 1;
// magic + version + dim + cube count + SpanTotals (3 x u64).
inline constexpr std::size_t kSpanSpoolHeaderSize = 8 + 4 + 4 + 8 + 24;
// Packed SpanEvent: clock, comp, data (u64); actor, parent (u32);
// hop (u16); kind, aux (u8).
inline constexpr std::size_t kSpanRecordSize = 8 * 3 + 4 * 2 + 2 + 1 + 1;

// Synthetic pid base for cubes outside the engine's slot table.
inline constexpr std::uint64_t kSpanUnslottedPidBase = 1'000'000;

// One cube's contribution to an export: its corner, its stable pid, and
// a borrowed recorder (must outlive the export call).
struct CubeSpanSource {
  Point corner;
  std::uint64_t pid = 0;
  const SpanRecorder* recorder = nullptr;
};

// One cube's spans as read back from a spool or Chrome JSON — the
// analyzer-side mirror of CubeSpanSource (obs/prof.h consumes this).
// read_chrome_trace fills only pid and events: a Chrome export carries
// corners and pair lanes only as display names, and no per-cube totals.
struct CubeSpans {
  Point corner;
  std::uint64_t pid = 0;
  std::vector<SpanEvent> events;        // chronological
  std::vector<std::uint32_t> pair_of;   // vid -> pair slot registry
  SpanTotals totals;
};

// The Chrome export's events that are not deterministic, by name: one
// wall row, the `wall_ms` metadata event, which the comparator skips.
const FieldTable& span_export_fields();

// Writes the Chrome trace-event JSON array. `sources` must be in
// ascending-corner order; `wall_ms` is the run's wall duration (the one
// non-deterministic byte sequence, isolated on its own line).
void export_chrome_trace(std::ostream& out, int dim,
                         const std::vector<CubeSpanSource>& sources,
                         double wall_ms);

// Writes the binary spool for the same sources.
void write_span_spool(std::ostream& out, int dim,
                      const std::vector<CubeSpanSource>& sources);

// A span trace read back: the run's dim and totals, and one entry per
// cube (ascending corner from a spool, ascending pid from Chrome JSON).
struct SpanSpool {
  int dim = 0;
  SpanTotals totals;
  std::vector<CubeSpans> cubes;
};

// Reads a spool back; check_errors on truncation / bad magic / bad
// version, naming the byte offset of the problem.
SpanSpool read_span_spool(const std::string& path);

// Reads a Chrome trace-event export back — the inverse of
// export_chrome_trace's mapping. Every span event carries its full record
// in its args block; dim and totals come from the trailer. check_errors
// on a file that does not parse, an event of an unknown phase, or a
// missing trailer, naming the path.
SpanSpool read_chrome_trace(const std::string& path);

}  // namespace cmvrp
