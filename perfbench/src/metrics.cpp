#include "metrics.hpp"

#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::array<MetricSpec, 10> kEndToEnd = {{
    {"setup_s", "s"},
    {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},
    {"demands_per_s", "1/s"},
    {"revenue", "profit"},
    {"rounds_per_op", "count"},
    {"messages_per_op", "count"},
    {"wire_tx_per_op", "count"},
    {"virtual_time_per_op", "tu"},
    {"peak_rss_mb", "MB"},
}};

constexpr std::array<MetricSpec, 46> kPerLayer = {{
    {"gen.scenario_ms", "ms"},
    {"gen.trace_ms", "ms"},
    {"core.dynamic_universe_build_ms", "ms"},
    {"core.add_us_per_arrival", "us"},
    {"core.retire_us_per_departure", "us"},
    {"core.universe_ms", "ms"},
    {"decomp.layering_ms", "ms"},
    {"dist.comm_graph_ms", "ms"},
    {"dist.run_ms", "ms"},
    {"dist.phase1_ms", "ms"},
    {"dist.phase2_ms", "ms"},
    {"dist.mis_ms", "ms"},
    {"dist.active_step_share", "ratio"},
    {"dist.raises", "count"},
    {"dist.accepts", "count"},
    {"dist.rejects", "count"},
    {"engine.shard_busy_ms", "ms"},
    {"engine.parallel_efficiency", "ratio"},
    {"engine.claims", "count"},
    {"engine.claims_registry", "count"},
    {"engine.claims_gap", "count"},
    {"engine.steals", "count"},
    {"engine.plane_growth_events", "count"},
    {"net.transmissions", "count"},
    {"net.retransmissions", "count"},
    {"net.drops", "count"},
    {"net.duplicates", "count"},
    {"net.payload_share", "ratio"},
    {"net.max_processor_load", "count"},
    {"net.processor_load_cv", "ratio"},
    {"net.load_variance_before", "demands2"},
    {"net.load_variance_after", "demands2"},
    {"net.demands_migrated", "count"},
    {"net.rebalance_ms", "ms"},
    {"net.transport_ctor_ms", "ms"},
    {"online.solver_ctor_ms", "ms"},
    {"online.epoch_ms", "ms"},
    {"online.epoch_self_ms", "ms"},
    {"online.epoch_self_share", "ratio"},
    {"online.mutate_ms", "ms"},
    {"online.admit_ms", "ms"},
    {"online.affected_instances_per_epoch", "count"},
    {"online.resolve_fraction", "ratio"},
    {"online.stack_sets", "count"},
    {"online.stored_raises", "count"},
    {"obs.trace_overhead_pct", "%"},
}};

}  // namespace

std::span<const MetricSpec> endToEndMetrics() { return kEndToEnd; }
std::span<const MetricSpec> perLayerMetrics() { return kPerLayer; }

std::string resultJson(const RunResult& result,
                       std::span<const MetricSpec> specs,
                       bool requireEverySpec) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (result.correct() ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = result.values.find(spec.name);
    if (it == result.values.end() && requireEverySpec) {
      throw std::logic_error(std::string("metric never measured: ") +
                             spec.name);
    }
    const double value = it == result.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      throw std::logic_error(std::string("metric not finite: ") + spec.name);
    }
    os << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": "
       << value << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
