// perfbench/report — the metric vocabulary and the result line.
//
// The tables here are the single list of metric names and units;
// BENCHMARK.json at the repo root lists the same names (run.py --selftest
// checks that they agree).  The last line a run prints is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (untraced run) or every per-layer
// metric (traced run).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Renders the result line over `specs`.  A metric missing from `values`
/// is one the workload does not exercise and reads 0.  Throws
/// std::logic_error for a value not named in `specs` (a typo in a
/// workload) or a non-finite value.
[[nodiscard]] std::string result_line(bool correct, const Outcomes& outcomes,
                                      const std::map<std::string, double>& values,
                                      const std::vector<MetricSpec>& specs);

/// JSON rendering of a double with every significant digit.
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
