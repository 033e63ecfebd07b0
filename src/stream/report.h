// The run report every serving front end (`cmvrp_cli stream`, `trace
// replay`, `trace mux`) writes with --json: one JSON object, schema
// cmvrp-stream-v6. Each of its rows (report.cpp) declares a key and its
// class (obs/field.h) and reads its value from the run, so a new report
// field is one row. (v6 dropped `routing_ms`, a copy of
// `stage_route_ms`, and added `flood_msgs_per_replacement` and
// `heartbeats_per_job`.)
#pragma once

#include "obs/field.h"
#include "stream/engine.h"
#include "util/json.h"

namespace cmvrp {

inline constexpr char kStreamSchema[] = "cmvrp-stream-v6";

// One finished serving run: its config, its result and its wall time.
struct StreamRun {
  const StreamConfig& config;
  const StreamResult& result;
  double wall_ms = 0.0;
};

// The report's rows, in order: each key and its class.
const FieldTable& stream_report_fields();

// The report of `run`: one key per row.
Json stream_report_json(const StreamRun& run);

}  // namespace cmvrp
