// The benchmark's metric catalogue and its result record.
//
// Every run prints every metric of its mode: the end-to-end list with
// tracing off, the per-layer list with tracing on. A per-layer metric of
// a layer the workload does not run reads 0. The names and units here
// must match BENCHMARK.json (run.py and the test check both ways).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

std::span<const MetricSpec> endToEndMetrics();
std::span<const MetricSpec> perLayerMetrics();

/// One run's outcome: operations attempted and failed (an operation is
/// one epoch or one solve; it fails when its output check fails) and
/// the metric values by name.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> values;

  bool correct() const { return attempted > 0 && failed == 0; }
  void set(const std::string& name, double value) { values[name] = value; }
};

/// Renders the result line for `specs`: every named metric with its
/// unit. Throws when an end-to-end metric was never set or a value is
/// not finite.
std::string resultJson(const RunResult& result,
                       std::span<const MetricSpec> specs,
                       bool requireEverySpec);

}  // namespace perfbench
