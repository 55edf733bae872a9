// Experiment E15: the policy tournament (policy/registry.hpp).
//
// Every registered scheduler runs over every gen/scenario preset — the
// one-shot presets as a single restricted solve on the full universe,
// the churn presets additionally through the scheduler-generic online
// epoch loop (policy/online_policy.hpp) — and the leaderboard ranks
// them by revenue with their latency and message cost alongside. This
// is the paper's positioning claim made executable: the certified
// two-phase family pays messages and rounds for its distributed
// guarantee, the centralized baselines (greedy, local search, the
// Even–Medina–Rosén-style density-class packing) answer with zero wire
// cost and no guarantee, and the revenue column shows what the
// guarantee is worth preset by preset.
//
// Message/round columns are honest across that divide: a distributed
// policy reports the traffic of its protocol run, a centralized policy
// reports 0 because it assumes global knowledge — which is the
// comparison axis, not an artifact.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <regex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/scenario.hpp"
#include "policy/online_policy.hpp"
#include "policy/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

struct OneshotRun {
  std::string preset;
  std::string policy;
  bool certified = false;
  bool distributed = false;
  std::int32_t demands = 0;
  std::int64_t instances = 0;
  std::int64_t admitted = 0;
  double revenue = 0;
  double ratioVsTwoPhase = 1.0;
  double dualUpperBound = 0;
  double lambda = 0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t raises = 0;
  double wallMs = 0;
  /// Metrics snapshot of this policy's run; centralized baselines
  /// publish nothing and embed "{}" — which is itself the comparison
  /// axis (no protocol, no protocol metrics).
  std::string metricsJson;
};

struct OnlineRun {
  std::string preset;
  std::string policy;
  std::int32_t demands = 0;
  std::int32_t epochs = 0;
  double finalRevenue = 0;
  double ratioVsTwoPhase = 1.0;
  std::int64_t admittedDemands = 0;
  std::int64_t departedUnadmitted = 0;
  double slaMeanEpochs = 0;
  std::int64_t slaMaxEpochs = 0;
  double meanResolveFraction = 0;
  std::int32_t fullResolves = 0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  double wallMs = 0;
  std::string metricsJson;
};

OneshotRun runOneshot(const std::string& preset,
                      const ScenarioProblem& scenario,
                      const std::string& policyId, std::uint64_t seed,
                      std::int32_t demands, bench::Telemetry& telemetry) {
  const SchedulerRegistry& registry = SchedulerRegistry::all();
  const SchedulerInfo& info = registry.info(policyId);
  DistributedOptions options;
  options.seed = seed + 7;
  options.epsilon = 0.3;
  options.misRoundBudget = 4;
  options.stepsPerStage = 2;
  MetricsRegistry metrics;
  options.tracer = telemetry.tracer();
  options.metrics = &metrics;
  const auto scheduler = registry.make(policyId, options);

  const auto begin = std::chrono::steady_clock::now();
  const ScheduleOutcome outcome = scheduler->solve(
      {scenario.universe, scenario.layering, scenario.access, {}, nullptr});
  const auto end = std::chrono::steady_clock::now();

  OneshotRun run;
  run.preset = preset;
  run.policy = policyId;
  run.certified = info.certified;
  run.distributed = info.distributed;
  run.demands = demands;
  run.instances = scenario.universe.numInstances();
  run.admitted = static_cast<std::int64_t>(outcome.solution.instances.size());
  run.revenue = outcome.profit;
  run.dualUpperBound = outcome.dualUpperBound;
  run.lambda = outcome.lambdaMeasured;
  run.rounds = outcome.rounds;
  run.messages = outcome.messages;
  run.raises = outcome.raises;
  run.wallMs =
      std::chrono::duration<double, std::milli>(end - begin).count();
  if (telemetry.printMetrics()) std::cout << metrics.describe();
  run.metricsJson = metrics.toJson();
  return run;
}

OnlineRun runOnline(const std::string& preset,
                    const ScenarioProblem& scenario,
                    const std::string& policyId, std::uint64_t seed,
                    std::int32_t demands, std::int32_t threads,
                    bench::Telemetry& telemetry) {
  ChurnEngineConfig config;
  config.epochLength = scenario.epochLength;
  config.solver.seed = seed + 13;
  config.solver.threads = threads;
  MetricsRegistry metrics;
  config.solver.tracer = telemetry.tracer();
  config.solver.metrics = &metrics;

  const auto begin = std::chrono::steady_clock::now();
  const ChurnRunResult churn =
      runChurnWithScheduler(scenario, scenario.trace, config, policyId);
  const auto end = std::chrono::steady_clock::now();

  OnlineRun run;
  run.preset = preset;
  run.policy = policyId;
  run.demands = demands;
  run.epochs = static_cast<std::int32_t>(churn.epochs.size());
  run.finalRevenue = churn.finalProfit;
  run.admittedDemands = churn.sla.admittedDemands;
  run.departedUnadmitted = churn.sla.departedUnadmitted;
  run.slaMeanEpochs = churn.sla.meanLatencyEpochs;
  run.slaMaxEpochs = churn.sla.maxLatencyEpochs;
  run.meanResolveFraction = churn.meanResolveFraction;
  run.fullResolves = churn.fullResolves;
  run.rounds = churn.totalRounds;
  run.messages = churn.totalMessages;
  run.wallMs =
      std::chrono::duration<double, std::milli>(end - begin).count();
  if (telemetry.printMetrics()) std::cout << metrics.describe();
  run.metricsJson = metrics.toJson();
  return run;
}

/// Leaderboard: rows of one preset sorted by revenue descending (rank 1
/// = highest revenue); ties broken by policy id for a stable print.
template <typename Run, typename Revenue>
void rankByRevenue(std::vector<Run>& runs, Revenue revenue) {
  std::stable_sort(runs.begin(), runs.end(),
                   [&revenue](const Run& a, const Run& b) {
                     if (revenue(a) != revenue(b)) {
                       return revenue(a) > revenue(b);
                     }
                     return a.policy < b.policy;
                   });
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 2012, "base RNG seed");
  flags.intFlag("demands", 1'500,
                "demand count per one-shot preset (the tournament runs "
                "the full catalogue at one comparable scale)");
  flags.intFlag("churn-demands", 360, "pool size per churn preset");
  flags.intFlag("threads", 1, "worker threads for the epoch re-solves");
  flags.stringFlag("policies", ".*",
                   "regex over registered scheduler ids (full match)");
  flags.stringFlag("json", "BENCH_tournament.json",
                   "machine-readable report path ('' disables)");
  bench::Telemetry::addFlags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  const auto demands = static_cast<std::int32_t>(flags.getInt("demands"));
  const auto churnDemands =
      static_cast<std::int32_t>(flags.getInt("churn-demands"));
  const auto threads = static_cast<std::int32_t>(flags.getInt("threads"));
  bench::Telemetry telemetry(flags);

  const std::vector<std::string> policies =
      SchedulerRegistry::all().ids(std::regex(flags.getString("policies")));
  if (policies.empty()) {
    std::cout << "no registered policy matches --policies '"
              << flags.getString("policies") << "'\n";
    return 1;
  }

  bench::banner(
      "E15",
      "one Scheduler interface spans the certified two-phase family and "
      "the uncertified baselines; the tournament prices the distributed "
      "guarantee in revenue, latency and message cost per preset",
      "two_phase variants stay within their approximation factor of the "
      "dual bound on every preset; baselines pay zero messages and win "
      "or lose revenue preset by preset — the leaderboard makes the "
      "trade explicit");

  bench::JsonReport json(flags.getString("json"));

  // ---- One-shot tournament: every preset, full universe ----------------
  Table oneshot({"preset", "rank", "policy", "revenue", "vs two_phase",
                 "dual UB", "wall ms", "rounds", "messages", "raises"});
  for (const ScenarioPresetInfo& preset : scenarioPresets()) {
    const ScenarioProblem scenario =
        buildScenarioProblem(preset.name, seed, demands);
    std::vector<OneshotRun> runs;
    runs.reserve(policies.size());
    for (const std::string& id : policies) {
      runs.push_back(
          runOneshot(preset.name, scenario, id, seed, demands, telemetry));
    }
    double reference = 0;
    for (const OneshotRun& run : runs) {
      if (run.policy == "two_phase") reference = run.revenue;
    }
    rankByRevenue(runs, [](const OneshotRun& r) { return r.revenue; });
    std::int32_t rank = 0;
    for (OneshotRun& run : runs) {
      if (reference > 0) run.ratioVsTwoPhase = run.revenue / reference;
      oneshot.row()
          .cell(run.preset)
          .cell(++rank)
          .cell(run.policy)
          .cell(run.revenue, 2)
          .cell(run.ratioVsTwoPhase, 3)
          .cell(run.certified ? run.dualUpperBound : 0.0, 2)
          .cell(run.wallMs, 2)
          .cell(run.rounds)
          .cell(run.messages)
          .cell(run.raises);
      json.row()
          .field("phase", std::string("oneshot"))
          .field("preset", run.preset)
          .field("policy", run.policy)
          .field("rank", rank)
          .field("certified", run.certified)
          .field("distributed", run.distributed)
          .field("demands", run.demands)
          .field("instances", run.instances)
          .field("admitted", run.admitted)
          .field("revenue", run.revenue)
          .field("revenue_ratio_vs_two_phase", run.ratioVsTwoPhase)
          .field("dual_upper_bound", run.dualUpperBound)
          .field("lambda", run.lambda)
          .field("rounds", run.rounds)
          .field("messages", run.messages)
          .field("raises", run.raises)
          .field("wall_ms", run.wallMs)
          .jsonField("metrics", run.metricsJson);
    }
  }
  oneshot.print(std::cout);

  // ---- Online tournament: churn presets through the epoch loop ---------
  std::cout << "\nonline tournament (churn presets, "
            << "policy/online_policy.hpp epoch loop):\n";
  Table online({"preset", "rank", "policy", "final rev", "vs two_phase",
                "sla mean", "sla max", "resolve frac", "wall ms", "rounds",
                "messages"});
  for (const ScenarioPresetInfo& preset : scenarioPresets()) {
    if (preset.kind.find("churn") == std::string::npos) continue;
    const ScenarioProblem scenario =
        buildScenarioProblem(preset.name, seed, churnDemands);
    std::vector<OnlineRun> runs;
    runs.reserve(policies.size());
    for (const std::string& id : policies) {
      runs.push_back(runOnline(preset.name, scenario, id, seed, churnDemands,
                               threads, telemetry));
    }
    double reference = 0;
    for (const OnlineRun& run : runs) {
      if (run.policy == "two_phase") reference = run.finalRevenue;
    }
    rankByRevenue(runs, [](const OnlineRun& r) { return r.finalRevenue; });
    std::int32_t rank = 0;
    for (OnlineRun& run : runs) {
      if (reference > 0) run.ratioVsTwoPhase = run.finalRevenue / reference;
      online.row()
          .cell(run.preset)
          .cell(++rank)
          .cell(run.policy)
          .cell(run.finalRevenue, 2)
          .cell(run.ratioVsTwoPhase, 3)
          .cell(run.slaMeanEpochs, 2)
          .cell(run.slaMaxEpochs)
          .cell(run.meanResolveFraction, 2)
          .cell(run.wallMs, 2)
          .cell(run.rounds)
          .cell(run.messages);
      json.row()
          .field("phase", std::string("online"))
          .field("preset", run.preset)
          .field("policy", run.policy)
          .field("rank", rank)
          .field("demands", run.demands)
          .field("epochs", run.epochs)
          .field("revenue", run.finalRevenue)
          .field("revenue_ratio_vs_two_phase", run.ratioVsTwoPhase)
          .field("admitted_demands", run.admittedDemands)
          .field("departed_unadmitted", run.departedUnadmitted)
          .field("mean_admission_latency_epochs", run.slaMeanEpochs)
          .field("max_admission_latency_epochs", run.slaMaxEpochs)
          .field("mean_resolve_fraction", run.meanResolveFraction)
          .field("full_resolves", run.fullResolves)
          .field("rounds", run.rounds)
          .field("messages", run.messages)
          .field("wall_ms", run.wallMs)
          .jsonField("metrics", run.metricsJson);
    }
  }
  online.print(std::cout);

  if (!flags.getString("json").empty()) json.write();
  telemetry.finish();
  return 0;
}
