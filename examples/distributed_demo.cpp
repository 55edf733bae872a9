// The message-passing simulation end to end (paper §5 "Distributed
// Implementation").
//
// Runs the (7+eps) tree algorithm as an actual synchronous protocol —
// processors only learn about the world through O(M)-sized messages from
// neighbours sharing a resource — and contrasts the communication cost
// with the centralized reference engine, verifying that both produce the
// same schedule bit for bit.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "dist/sim_network.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "policy/registry.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

/// --trace/--metrics wiring for the demo (the bench binaries share the
/// same interface via bench_common.hpp).
struct DemoTelemetry {
  explicit DemoTelemetry(const CliFlags& flags)
      : printMetrics(flags.getBool("metrics")) {
    const std::string& path = flags.getString("trace");
    if (!path.empty()) {
      sink = std::make_unique<ChromeTraceSink>(path);
      tracer = Tracer(sink.get());
    }
  }
  Tracer* get() { return sink != nullptr ? &tracer : nullptr; }
  void report(const MetricsRegistry& metrics) const {
    if (printMetrics) std::cout << "\n" << metrics.describe();
  }
  void finish() {
    if (sink != nullptr) {
      sink->close();
      std::cout << "wrote " << sink->path() << " (" << sink->eventCount()
                << " trace events)\n";
    }
  }

  std::unique_ptr<ChromeTraceSink> sink;
  Tracer tracer;
  bool printMetrics = false;
};

void listPolicies() {
  const SchedulerRegistry& registry = SchedulerRegistry::all();
  Table table({"policy", "certified", "distributed", "summary"});
  for (const std::string& id : registry.ids()) {
    const SchedulerInfo& info = registry.info(id);
    table.row()
        .cell(info.id)
        .cell(info.certified ? "yes" : "no")
        .cell(info.distributed ? "yes" : "no")
        .cell(info.summary);
  }
  table.print(std::cout);
}

/// Runs one registry scheduler (policy/registry.hpp) over a scenario
/// preset and reports its revenue/round/message line — the single-row
/// version of bench_tournament.
int runPolicy(const std::string& policyId, std::string preset,
              std::uint64_t seed, std::int32_t demands,
              DemoTelemetry& telemetry) {
  const SchedulerRegistry& registry = SchedulerRegistry::all();
  if (!registry.has(policyId)) {
    std::cout << "unknown --policy '" << policyId
              << "' (use --list-policies)\n";
    return 1;
  }
  if (preset.empty()) preset = "cdn_tree_250k";
  if (demands <= 0) demands = 2'000;  // keep the demo interactive
  const ScenarioProblem scenario =
      buildScenarioProblem(preset, seed, demands);

  DistributedOptions options;
  options.seed = seed + 7;
  options.epsilon = 0.3;
  options.misRoundBudget = 4;
  options.stepsPerStage = 2;
  MetricsRegistry metrics;
  options.tracer = telemetry.get();
  options.metrics = &metrics;
  const auto scheduler = registry.make(policyId, options);

  const auto begin = std::chrono::steady_clock::now();
  const ScheduleOutcome outcome = scheduler->solve(
      {scenario.universe, scenario.layering, scenario.access, {}, nullptr});
  const auto end = std::chrono::steady_clock::now();
  const double wallMs =
      std::chrono::duration<double, std::milli>(end - begin).count();

  const SchedulerInfo& info = registry.info(policyId);
  std::cout << "policy " << info.id << " (" << info.summary << ")\n"
            << "preset " << preset << ": " << demands << " demands, "
            << scenario.universe.numInstances() << " instances\n\n";
  Table table({"metric", "value"});
  table.row().cell("wall time (ms)").cell(wallMs, 1);
  table.row().cell("revenue").cell(outcome.profit, 2);
  table.row()
      .cell("admitted instances")
      .cell(static_cast<std::int64_t>(outcome.solution.instances.size()));
  if (info.certified) {
    table.row().cell("dual upper bound").cell(outcome.dualUpperBound, 2);
    table.row().cell("lambda reached").cell(outcome.lambdaMeasured, 4);
  }
  table.row().cell("simulated rounds").cell(outcome.rounds);
  table.row().cell("messages delivered").cell(outcome.messages);
  table.row().cell("dual raises").cell(outcome.raises);
  table.print(std::cout);
  telemetry.report(metrics);
  return 0;
}

/// Exercises the parallel engine on one of the production-scale presets
/// (gen/scenario.hpp) at the requested thread count. Bit-identity across
/// thread counts is gated by tests/parallel_equivalence_test.cpp and
/// re-checked by bench_parallel; here we show the engine at work.
int runPreset(const std::string& preset, std::uint64_t seed,
              std::int32_t demands, std::int32_t threads,
              DemoTelemetry& telemetry) {
  if (preset != "metro_line_100k" && preset != "cdn_tree_250k") {
    std::cout << "unknown --preset '" << preset
              << "' (use metro_line_100k or cdn_tree_250k)\n";
    return 1;
  }
  if (demands <= 0) demands = 20'000;  // keep the demo interactive
  PreparedRun prepared =
      preset == "metro_line_100k"
          ? prepareUnitLineRun(makeMetroLine100k(seed, demands))
          : prepareUnitTreeRun(makeCdnTree250k(seed, demands));

  DistributedOptions dopt;
  dopt.seed = seed + 7;
  dopt.epsilon = 0.3;
  dopt.misRoundBudget = 4;
  dopt.stepsPerStage = 2;
  dopt.threads = threads;
  MetricsRegistry metrics;
  dopt.tracer = telemetry.get();
  dopt.metrics = &metrics;

  SimNetwork bus(std::move(prepared.adjacency));
  const auto begin = std::chrono::steady_clock::now();
  const DistributedResult result = runDistributedOverTransport(
      prepared.universe, prepared.layering, bus, dopt);
  const auto end = std::chrono::steady_clock::now();
  const double wallMs =
      std::chrono::duration<double, std::milli>(end - begin).count();

  std::cout << "preset " << preset << ": " << demands << " demands, "
            << prepared.universe.numInstances() << " instances, " << threads
            << " thread(s)\n\n";
  Table table({"metric", "value"});
  table.row().cell("wall time (ms)").cell(wallMs, 1);
  table.row().cell("profit").cell(result.profit, 2);
  table.row().cell("dual upper bound").cell(result.dualUpperBound, 2);
  table.row().cell("lambda reached").cell(result.lambdaMeasured, 4);
  table.row().cell("simulated rounds").cell(result.network.rounds);
  table.row().cell("messages delivered").cell(result.network.messages);
  table.row()
      .cell("plane growth events")
      .cell(result.network.planeGrowthEvents);
  table.row()
      .cell("last plane growth round")
      .cell(result.network.planeLastGrowthRound);
  table.row()
      .cell("local dual views consistent")
      .cell(result.localViewsConsistent ? "yes" : "NO");
  table.print(std::cout);
  telemetry.report(metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 31337, "scenario RNG seed");
  flags.intFlag("threads", 1,
                "worker threads for the parallel engine (bit-identical "
                "results at any value)");
  flags.stringFlag("preset", "",
                   "run a production-scale preset instead of the small "
                   "demo: metro_line_100k or cdn_tree_250k");
  flags.intFlag("demands", 0,
                "preset demand count override (0 = preset demo default)");
  flags.boolFlag("list-presets", false,
                 "enumerate every gen/scenario preset and exit");
  flags.stringFlag("policy", "",
                   "run a registered scheduler instead of the demo: any "
                   "id from --list-policies, over --preset (default "
                   "cdn_tree_250k)");
  flags.boolFlag("list-policies", false,
                 "enumerate every registered scheduler and exit");
  flags.stringFlag("trace", "",
                   "write a Chrome trace-event JSON of the run to FILE");
  flags.boolFlag("metrics", false,
                 "print the run's metrics-registry snapshot");
  if (!flags.parse(argc, argv)) return 0;

  if (flags.getBool("list-policies")) {
    listPolicies();
    return 0;
  }
  if (flags.getBool("list-presets")) {
    Table table({"preset", "kind", "default demands", "summary"});
    for (const ScenarioPresetInfo& preset : scenarioPresets()) {
      table.row()
          .cell(preset.name)
          .cell(preset.kind)
          .cell(preset.defaultDemands)
          .cell(preset.summary);
    }
    table.print(std::cout);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  const auto threads = static_cast<std::int32_t>(flags.getInt("threads"));
  DemoTelemetry telemetry(flags);

  if (!flags.getString("policy").empty()) {
    const int rc = runPolicy(flags.getString("policy"),
                             flags.getString("preset"), seed,
                             static_cast<std::int32_t>(flags.getInt("demands")),
                             telemetry);
    telemetry.finish();
    return rc;
  }
  if (!flags.getString("preset").empty()) {
    const int rc = runPreset(flags.getString("preset"), seed,
                             static_cast<std::int32_t>(flags.getInt("demands")),
                             threads, telemetry);
    telemetry.finish();
    return rc;
  }

  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 40;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 48;
  cfg.demands.accessProbability = 0.6;
  const TreeProblem problem = makeTreeScenario(cfg);

  // Communication graph: processors are adjacent iff they share a network.
  const auto adjacency = communicationGraph(problem.access,
                                            problem.numNetworks());
  std::size_t edges = 0;
  for (const auto& nbrs : adjacency) edges += nbrs.size();
  std::cout << "processors: " << adjacency.size()
            << ", communication edges: " << edges / 2 << "\n\n";

  // Print the first few active steps via the observer hooks (the
  // structured obs/Tracer rides alongside through --trace).
  class StepPrinter : public ProtocolObserver {
   public:
    void onStepStart(std::int32_t epoch, std::int32_t stage, std::int32_t step,
                     std::int32_t participants) override {
      if (++count_ <= 6) {
        std::cout << "  step <" << epoch << "," << stage << "," << step
                  << ">: " << participants << " unsatisfied instances";
      }
    }
    void onMisComplete(std::int64_t, std::int32_t lubyRounds,
                       std::int32_t misSize) override {
      if (count_ <= 6) {
        std::cout << " -> MIS of " << misSize << " in " << lubyRounds
                  << " Luby rounds\n";
      } else if (count_ == 7 && !ellipsis_) {
        std::cout << "  ...\n";
        ellipsis_ = true;
      }
    }

   private:
    int count_ = 0;
    bool ellipsis_ = false;
  };
  StepPrinter printer;

  std::cout << "phase-1 trace (first steps):\n";
  DistributedOptions options;
  options.seed = 7;
  options.epsilon = 0.1;
  options.misRoundBudget = 32;
  options.stepsPerStage = 10;
  options.threads = threads;
  options.observer = &printer;
  MetricsRegistry metrics;
  options.tracer = telemetry.get();
  options.metrics = &metrics;
  const DistributedResult dist = runDistributedUnitTree(problem, options);
  std::cout << "\n";

  // Centralized reference with the identical fixed schedule.
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  universe.buildConflicts();
  const TreeLayeringResult layering = buildTreeLayering(problem, universe);
  const TwoPhaseResult central = runTwoPhase(universe, layering.layering,
                                             centralizedReference(options));

  Table table({"metric", "value"});
  table.row().cell("profit (distributed)").cell(dist.profit, 2);
  table.row().cell("profit (centralized)").cell(central.profit, 2);
  std::vector<InstanceId> c = central.solution.instances;
  std::sort(c.begin(), c.end());
  table.row()
      .cell("schedules identical")
      .cell(c == dist.solution.instances ? "yes" : "NO");
  table.row()
      .cell("local dual views consistent")
      .cell(dist.localViewsConsistent ? "yes" : "NO");
  table.row().cell("lambda reached").cell(dist.lambdaMeasured, 4);
  table.row().cell("simulated rounds").cell(dist.network.rounds);
  table.row().cell("rounds with traffic").cell(dist.network.busyRounds);
  table.row().cell("messages delivered").cell(dist.network.messages);
  table.row().cell("payload (units of M)").cell(dist.network.payload);
  table.row()
      .cell("largest message (units of M)")
      .cell(dist.network.maxMessagePayload);
  table.row().cell("active MIS steps").cell(dist.activeSteps);
  table.row().cell("dual raises").cell(dist.raises);
  table.print(std::cout);

  std::cout << "\nOPT <= " << dist.dualUpperBound
            << " by LP duality; schedule value " << dist.profit << " is >= OPT/"
            << dist.dualUpperBound / dist.profit << "\n";
  telemetry.report(metrics);
  telemetry.finish();
  return 0;
}
