// Experiment E14 — the online churn engine: epoch-batched admission with
// warm-started incremental re-solves (src/online/).
//
// Replays the churn presets (flash_crowd_50k, diurnal_metro_100k,
// hotspot_tree_50k, plus a Poisson control on each pool) through the
// churn engine and reports, per arrival pattern: epochs/sec, the mean
// re-solve fraction (how much of the instance each epoch actually re-ran
// — the number that must sit below 1.0 on locality-heavy traces), the
// admission-latency SLA (mean/max epochs from arrival to first
// admission) and the revenue ratio of the final incremental solution
// against the from-scratch two-phase solve on the surviving demand set.
//
// The transport dimension runs the hotspot preset over every live
// transport (sync bus / async lossy wire / live-sharded wire) at a
// smaller pool — epoch outcomes are bit-identical by contract
// (tests/online_transport_test.cpp), so the rows isolate what the wire
// costs: epochs/sec, physical transmissions and virtual time.
//
// The fixed-trace pool sweep holds the churn to demand ids < 200 of a
// 400-demand flash_crowd_50k pool and replays the same epoch batches
// against that pool padded with never-arriving copies of its demands, up
// to 102.4k: every row runs the identical trace (and produces identical
// epochs), so its per-epoch time isolates what pool size alone costs.
//
// Emits BENCH_online.json next to the table; CI uploads it with the
// other bench reports and the schema guard keeps its keys stable.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "net/live_transport.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "online/churn_engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

struct PatternRun {
  std::string preset;
  std::string pattern;
  std::string transport = "sync";
  bool rebalance = false;  ///< epoch-boundary hot-shard rebalancing on
  std::int32_t demands = 0;
  std::int32_t epochs = 0;
  double wallMs = 0;
  ChurnRunResult churn;
  /// Per-run MetricsRegistry snapshot (obs/), embedded verbatim in the
  /// JSON row so every row stays self-contained.
  std::string metricsJson;
  double scratchProfit = 0;
  /// Whether the *final* epoch was a full re-solve; only then is the
  /// bit-gate below meaningful (warm finals are covered by the revenue
  /// ratio, and full-resolve identity is gated by tests/online_test).
  bool finalEpochFullResolve = false;
  bool finalFullResolveMatchesScratch = false;
};

void report(Table& table, bench::JsonReport& json, const PatternRun& run) {
  const double epochsPerSec =
      run.wallMs > 0 ? 1000.0 * static_cast<double>(run.epochs) / run.wallMs
                     : 0.0;
  const double revenueRatio =
      run.scratchProfit > 0 ? run.churn.finalProfit / run.scratchProfit : 1.0;
  table.row()
      .cell(run.preset)
      .cell(run.pattern)
      .cell(run.transport)
      .cell(run.demands)
      .cell(run.epochs)
      .cell(run.wallMs, 1)
      .cell(epochsPerSec, 1)
      .cell(run.churn.universeBuildMs, 1)
      .cell(run.churn.meanExtendUsPerArrival, 2)
      .cell(run.churn.meanResolveFraction, 3)
      .cell(run.churn.fullResolves)
      .cell(revenueRatio, 3)
      .cell(run.churn.sla.meanLatencyEpochs, 2)
      .cell(run.churn.sla.p99LatencyEpochs, 1)
      .cell(run.churn.sla.maxLatencyEpochs)
      .cell(run.churn.totalRounds)
      .cell(run.churn.network.transmissions)
      .cell(run.churn.totalDemandsMigrated)
      .cell(run.churn.peakVarianceBefore, 1)
      .cell(run.churn.peakVarianceAfter, 1);
  json.row()
      .field("preset", run.preset)
      .field("pattern", run.pattern)
      .field("transport", run.transport)
      .field("rebalance", run.rebalance)
      .field("demands", run.demands)
      .field("epochs", run.epochs)
      .field("wall_ms", run.wallMs)
      .field("epochs_per_sec", epochsPerSec)
      .field("universe_build_ms", run.churn.universeBuildMs)
      .field("mean_extend_us_per_arrival", run.churn.meanExtendUsPerArrival)
      .field("mean_resolve_fraction", run.churn.meanResolveFraction)
      .field("full_resolves", run.churn.fullResolves)
      .field("final_profit", run.churn.finalProfit)
      .field("scratch_profit", run.scratchProfit)
      .field("revenue_ratio", revenueRatio)
      .field("rounds", run.churn.totalRounds)
      .field("messages", run.churn.totalMessages)
      .field("transmissions", run.churn.network.transmissions)
      .field("retransmissions", run.churn.network.retransmissions)
      .field("virtual_time", run.churn.network.virtualTime)
      .field("mean_admission_latency_epochs",
             run.churn.sla.meanLatencyEpochs)
      .field("max_admission_latency_epochs", run.churn.sla.maxLatencyEpochs)
      .field("sla_p50_epochs", run.churn.sla.p50LatencyEpochs)
      .field("sla_p99_epochs", run.churn.sla.p99LatencyEpochs)
      .field("admitted_demands", run.churn.sla.admittedDemands)
      .field("departed_unadmitted", run.churn.sla.departedUnadmitted)
      .field("final_epoch_full_resolve", run.finalEpochFullResolve)
      .field("final_full_resolve_matches_scratch",
             run.finalFullResolveMatchesScratch)
      .field("demands_migrated", run.churn.totalDemandsMigrated)
      .field("load_variance_before", run.churn.peakVarianceBefore)
      .field("load_variance_after", run.churn.peakVarianceAfter)
      .field("engine_claims", run.churn.totalEngineClaims)
      .field("engine_steals", run.churn.totalEngineSteals)
      .jsonField("metrics", run.metricsJson);
}

/// From-scratch comparator on the final active set: the two-phase engine
/// restricted to the demands still alive after the last epoch.
double scratchProfitOnSurvivors(const InstanceUniverse& universe,
                                const Layering& layering,
                                const ChurnEngineConfig& config,
                                const ChurnRunResult& churn,
                                std::span<const InstanceId> activeInstances) {
  DistributedOptions options = epochProtocolOptions(config.solver, 0);
  options.seed = churn.epochs.empty() ? config.solver.seed
                                      : churn.epochs.back().protocolSeed;
  return runTwoPhaseRestricted(universe, layering,
                               centralizedReference(options), activeInstances)
      .profit;
}

DynamicUniverse makeDynamicUniverse(const TreeProblem& pool) {
  return makeDynamicTreeUniverse(pool);
}
DynamicUniverse makeDynamicUniverse(const LineProblem& pool) {
  return makeDynamicLineUniverse(pool);
}

template <typename Pool>
PatternRun runPattern(const std::string& preset, const std::string& pattern,
                      const Pool& pool, const PreparedRun& prepared,
                      const ArrivalConfig& arrivals, double epochLength,
                      std::uint64_t seed, std::int32_t threads,
                      bench::Telemetry& telemetry, std::string* seriesOut,
                      const LiveTransportConfig& transport = {},
                      const ShardRebalanceConfig& rebalance = {}) {
  ChurnEngineConfig config;
  config.epochLength = epochLength;
  config.solver.seed = seed + 13;
  config.solver.epsilon = 0.3;
  config.solver.misRoundBudget = 4;
  config.solver.stepsPerStage = 2;
  config.solver.threads = threads;
  config.solver.rebalance = rebalance;
  config.transport = transport;
  // One registry per pattern run; telemetry is read-only w.r.t. the
  // epoch outcomes, so the bit-gates below are unaffected.
  MetricsRegistry metrics;
  config.solver.tracer = telemetry.tracer();
  config.solver.metrics = &metrics;
  // Per-epoch registry snapshots (obs/timeseries.hpp): one labeled
  // EpochSeries per pattern run, all concatenated into one JSONL
  // artifact. Snapshots are read-only, so the bit-gates are unaffected.
  EpochSeries series(metrics,
                     preset + "/" + pattern + "/" +
                         std::string(liveTransportKindName(transport.kind)) +
                         (rebalance.enabled ? "/rebalance" : ""));
  if (seriesOut != nullptr) {
    config.solver.series = &series;
  }

  const ChurnTrace trace = generateChurnTrace(arrivals, pool.access);

  PatternRun run;
  run.preset = preset;
  run.pattern = pattern;
  run.transport = liveTransportKindName(transport.kind);
  run.rebalance = rebalance.enabled;
  run.demands = pool.numDemands();

  // The engine (with its live transport and dynamic universe) is
  // rebuilt per pattern; trace generation happens outside the measured
  // window, the dynamic-universe shell build inside it (its own cost is
  // reported separately as universe_build_ms).
  const auto begin = std::chrono::steady_clock::now();
  DynamicUniverse universe = makeDynamicUniverse(pool);
  ChurnRunResult churn = runChurnOverTrace(universe, trace, config);
  const auto end = std::chrono::steady_clock::now();

  run.epochs = static_cast<std::int32_t>(churn.epochs.size());
  run.wallMs = std::chrono::duration<double, std::milli>(end - begin).count();
  run.churn = std::move(churn);
  if (telemetry.printMetrics()) {
    std::cout << metrics.describe();
  }
  run.metricsJson = metrics.toJson();
  if (seriesOut != nullptr) {
    *seriesOut += series.jsonl();
  }
  run.scratchProfit = scratchProfitOnSurvivors(
      prepared.universe, prepared.layering, config, run.churn,
      run.churn.finalActiveInstances);
  if (!run.churn.epochs.empty() && run.churn.epochs.back().fullResolve) {
    run.finalEpochFullResolve = true;
    run.finalFullResolveMatchesScratch =
        run.churn.epochs.back().profit == run.scratchProfit;
  }
  return run;
}

// ---- Fixed-trace pool sweep ----

constexpr std::int32_t kSweepBaseDemands = 400;
constexpr std::int32_t kSweepChurnedIds = 200;

/// `base` padded to `demands` with copies of its demands (cycling),
/// appended so no original id moves. Copies never arrive; they only
/// widen every pool-indexed structure, and keep every pool constant
/// (profit range, layer count, max critical size) as it was.
TreeProblem padWithCopies(const TreeProblem& base, std::int32_t demands) {
  TreeProblem padded = base;
  for (std::int32_t d = base.numDemands(); d < demands; ++d) {
    const auto source = static_cast<std::size_t>(d % base.numDemands());
    Demand demand = base.demands[source];
    demand.id = d;
    padded.demands.push_back(demand);
    padded.access.push_back(base.access[source]);
  }
  return padded;
}

/// Sums the durations of the complete spans carrying one name.
class SpanTotal final : public TraceSink {
 public:
  explicit SpanTotal(const char* name) : name_(name) {}
  void event(const TraceEvent& e) override {
    if (e.ph == 'X' && std::strcmp(e.name, name_) == 0) {
      micros_ += e.durMicros;
    }
  }
  double ms() const { return static_cast<double>(micros_) / 1000.0; }

 private:
  const char* name_;
  std::int64_t micros_ = 0;
};

struct SweepPass {
  std::vector<double> epochMs;  ///< applyEpoch wall time per epoch
  double finalProfit = 0;
  std::int64_t rounds = 0;
  bool auditClean = true;  ///< every epoch's localViewsConsistent
};

/// Replays `batches` over `pool` on the sync bus; with `tracer` set the
/// solver's spans reach its sink.
SweepPass runSweepPass(const TreeProblem& pool,
                       const std::vector<EpochBatch>& batches,
                       OnlineSolverConfig config, Tracer* tracer) {
  config.tracer = tracer;
  DynamicUniverse universe = makeDynamicTreeUniverse(pool);
  const std::unique_ptr<Transport> transport =
      makeLiveTransport(pool.numDemands(), pool.access, {});
  IncrementalSolver solver(universe, config, *transport);
  SweepPass pass;
  for (const EpochBatch& batch : batches) {
    const auto begin = std::chrono::steady_clock::now();
    const EpochOutcome outcome =
        solver.applyEpoch(batch.arrivals, batch.departures);
    pass.epochMs.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - begin)
                               .count());
    pass.finalProfit = outcome.profit;
    pass.rounds += outcome.rounds;
    pass.auditClean = pass.auditClean && outcome.localViewsConsistent;
  }
  return pass;
}

/// The sweep rows: pools of 400, 1.6k, 6.4k, ... up to `maxDemands`,
/// each timed untraced (ms_per_epoch: the mean, which includes the
/// first epoch's one-time engine allocation; median_ms_per_epoch: the
/// steady state) and replayed traced for the engine's per-run reset
/// (epoch_setup_ms, the engine_setup spans).
void runFixedTraceSweep(std::uint64_t seed, std::int32_t threads,
                        std::int32_t maxDemands, bench::JsonReport& json) {
  const ChurnTreeScenario scenario =
      makeFlashCrowdTree50k(seed, kSweepBaseDemands);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 512.0;  // 64 epochs
  arrivals.meanLifetime = 192.0;
  const std::vector<EpochBatch> batches = batchTrace(
      generateChurnTrace(arrivals, kSweepChurnedIds), scenario.epochLength);
  OnlineSolverConfig config;
  config.seed = seed + 13;
  config.epsilon = 0.3;
  config.misRoundBudget = 4;
  config.stepsPerStage = 2;
  config.threads = threads;

  Table table({"pool demands", "epochs", "ms/epoch", "median ms",
               "setup ms/epoch", "x smallest", "final profit", "same epochs",
               "audit"});
  double smallestMs = 0;
  double largestRatio = 0;
  double largestMedianRatio = 0;
  double smallestMedianMs = 0;
  std::int32_t largest = 0;
  SweepPass smallest;
  for (std::int32_t demands = kSweepBaseDemands; demands <= maxDemands;
       demands *= 4) {
    const TreeProblem pool = padWithCopies(scenario.pool, demands);
    const SweepPass timed = runSweepPass(pool, batches, config, nullptr);
    SpanTotal setup("engine_setup");
    Tracer tracer(&setup);
    const SweepPass traced = runSweepPass(pool, batches, config, &tracer);

    const auto epochs = static_cast<double>(batches.size());
    double totalMs = 0;
    for (const double ms : timed.epochMs) totalMs += ms;
    const double msPerEpoch = totalMs / epochs;
    std::vector<double> sorted = timed.epochMs;
    std::sort(sorted.begin(), sorted.end());
    const double medianMs = sorted.empty() ? 0 : sorted[sorted.size() / 2];
    if (demands == kSweepBaseDemands) {
      smallestMs = msPerEpoch;
      smallestMedianMs = medianMs;
      smallest = timed;
    }
    const double ratio = smallestMs > 0 ? msPerEpoch / smallestMs : 0.0;
    const bool sameEpochs = timed.finalProfit == smallest.finalProfit &&
                            timed.rounds == smallest.rounds &&
                            traced.finalProfit == timed.finalProfit &&
                            traced.rounds == timed.rounds;
    const bool audit = timed.auditClean && traced.auditClean;
    largest = demands;
    largestRatio = ratio;
    largestMedianRatio =
        smallestMedianMs > 0 ? medianMs / smallestMedianMs : 0.0;
    table.row()
        .cell(demands)
        .cell(static_cast<std::int64_t>(batches.size()))
        .cell(msPerEpoch, 3)
        .cell(medianMs, 3)
        .cell(setup.ms() / epochs, 3)
        .cell(ratio, 2)
        .cell(timed.finalProfit, 1)
        .cell(sameEpochs ? "yes" : "NO")
        .cell(audit ? "clean" : "STALE");
    json.row()
        .field("preset", std::string("flash_crowd_50k"))
        .field("pattern", std::string("fixed_trace_sweep"))
        .field("transport", std::string("sync"))
        .field("demands", demands)
        .field("churned_ids", kSweepChurnedIds)
        .field("epochs", static_cast<std::int32_t>(batches.size()))
        .field("ms_per_epoch", msPerEpoch)
        .field("median_ms_per_epoch", medianMs)
        .field("epoch_setup_ms", setup.ms() / epochs)
        .field("ms_per_epoch_vs_smallest", ratio)
        .field("final_profit", timed.finalProfit)
        .field("rounds", timed.rounds)
        .field("same_epochs_as_smallest", sameEpochs)
        .field("local_views_consistent", audit);
  }
  std::cout << "\nFixed-trace pool sweep (churn on ids < " << kSweepChurnedIds
            << " of a " << kSweepBaseDemands
            << "-demand flash_crowd_50k pool; the padding never arrives):\n";
  table.print(std::cout);
  std::cout << "ms/epoch at " << largest << " demands vs " << kSweepBaseDemands
            << ": mean " << largestRatio << "x, median "
            << largestMedianRatio << "x (target: within 2x)\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 1, "base RNG seed");
  flags.intFlag("tree-demands", 50'000, "flash_crowd preset demand count");
  flags.intFlag("line-demands", 100'000, "diurnal preset demand count");
  flags.intFlag("hotspot-demands", 50'000, "hotspot preset demand count");
  flags.intFlag("transport-demands", 2'000,
                "pool size of the per-transport matrix (event-driven "
                "wires are simulated packet by packet)");
  flags.intFlag("threads", 1, "worker threads for the epoch re-solves");
  flags.intFlag("sweep-max-demands", 102'400,
                "largest pool of the fixed-trace sweep (400 x 4^k)");
  flags.stringFlag("json", "BENCH_online.json",
                   "machine-readable report path ('' disables)");
  flags.stringFlag("series", "BENCH_online_series.jsonl",
                   "per-epoch time-series JSONL path ('' disables)");
  bench::Telemetry::addFlags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  const auto treeDemands =
      static_cast<std::int32_t>(flags.getInt("tree-demands"));
  const auto lineDemands =
      static_cast<std::int32_t>(flags.getInt("line-demands"));
  const auto hotspotDemands =
      static_cast<std::int32_t>(flags.getInt("hotspot-demands"));
  const auto transportDemands =
      static_cast<std::int32_t>(flags.getInt("transport-demands"));
  const auto threads = static_cast<std::int32_t>(flags.getInt("threads"));
  const auto sweepMaxDemands =
      static_cast<std::int32_t>(flags.getInt("sweep-max-demands"));
  bench::Telemetry telemetry(flags);

  bench::banner(
      "E14",
      "epoch-batched admission with warm-started incremental re-solves "
      "tracks the from-scratch two-phase engine at a fraction of the "
      "phase-1 work, over any transport (sync bus / async lossy wire / "
      "live-sharded wire)",
      "mean re-solve fraction < 1.0 on the locality-heavy churn presets; "
      "revenue ratio vs from-scratch within the approximation factor "
      "(empirically near 1); full-resolve epochs identical to scratch; "
      "per-transport epochs identical, only wire accounting moves");

  Table table({"preset", "pattern", "transport", "demands", "epochs",
               "wall ms", "epochs/s", "build ms", "ext us/arr",
               "resolve frac", "full", "rev ratio",
               "sla mean", "sla p99", "sla max", "rounds", "wire tx",
               "migrated", "var before", "var after"});
  bench::JsonReport json(flags.getString("json"));
  const std::string seriesPath = flags.getString("series");
  std::string seriesText;
  std::string* const seriesOut = seriesPath.empty() ? nullptr : &seriesText;

  {
    const ChurnTreeScenario scenario = makeFlashCrowdTree50k(seed,
                                                             treeDemands);
    const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
    report(table, json,
           runPattern("flash_crowd_50k", "flash_crowd", scenario.pool,
                      prepared, scenario.arrivals, scenario.epochLength,
                      seed, threads, telemetry, seriesOut));
    ArrivalConfig poisson = scenario.arrivals;
    poisson.model = ArrivalModel::Poisson;
    report(table, json,
           runPattern("flash_crowd_50k", "poisson", scenario.pool, prepared,
                      poisson, scenario.epochLength, seed, threads,
                      telemetry, seriesOut));
  }
  {
    const ChurnLineScenario scenario =
        makeDiurnalMetroLine100k(seed, lineDemands);
    const PreparedRun prepared = prepareUnitLineRun(scenario.pool);
    report(table, json,
           runPattern("diurnal_metro_100k", "diurnal", scenario.pool,
                      prepared, scenario.arrivals, scenario.epochLength,
                      seed, threads, telemetry, seriesOut));
    ArrivalConfig poisson = scenario.arrivals;
    poisson.model = ArrivalModel::Poisson;
    report(table, json,
           runPattern("diurnal_metro_100k", "poisson", scenario.pool,
                      prepared, poisson, scenario.epochLength, seed,
                      threads, telemetry, seriesOut));
  }
  {
    // The adversarial preset: a targeted arrival wave plus a correlated
    // mass departure on the same hot networks.
    const ChurnTreeScenario scenario = makeHotspotTree50k(seed,
                                                          hotspotDemands);
    const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
    report(table, json,
           runPattern("hotspot_tree_50k", "targeted_burst", scenario.pool,
                      prepared, scenario.arrivals, scenario.epochLength,
                      seed, threads, telemetry, seriesOut));
  }
  {
    // Pool-size sweep — the dynamic universe's O(arrival) claim made
    // visible: the same flash-crowd arrival process over pools of
    // growing size. mean_extend_us_per_arrival must stay flat across
    // these rows while any from-scratch rebuild would scale with the
    // pool (universe_build_ms of the one-off shell build tracks pool
    // size; the per-arrival column must not).
    const struct {
      const char* pattern;
      std::int32_t divisor;
    } sweep[] = {{"pool_sweep_quarter", 4},
                 {"pool_sweep_half", 2},
                 {"pool_sweep_full", 1}};
    for (const auto& point : sweep) {
      const std::int32_t poolSize = std::max(64, treeDemands / point.divisor);
      const ChurnTreeScenario scenario = makeFlashCrowdTree50k(seed, poolSize);
      const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
      report(table, json,
             runPattern("flash_crowd_50k", point.pattern, scenario.pool,
                        prepared, scenario.arrivals, scenario.epochLength,
                        seed, threads, telemetry, seriesOut));
    }
  }
  {
    // Transport matrix: identical epochs (by the Transport contract),
    // per-wire cost.
    const ChurnTreeScenario scenario =
        makeHotspotTree50k(seed, transportDemands);
    const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
    AsyncConfig wire;
    wire.seed = seed ^ 0x3b9ULL;
    wire.link.latency.model = LatencyModel::HeavyTail;
    wire.link.latency.base = 1.0;
    wire.link.latency.tailShape = 1.5;
    wire.link.latency.tailCap = 64.0;
    wire.link.dropProbability = 0.05;
    wire.link.retransmitTimeout = 16.0;
    for (const LiveTransportKind kind :
         {LiveTransportKind::SyncBus, LiveTransportKind::Async,
          LiveTransportKind::Sharded}) {
      LiveTransportConfig transport;
      transport.kind = kind;
      transport.async = wire;
      transport.async.shardProcessors = std::max(2, transportDemands / 64);
      report(table, json,
             runPattern("hotspot_tree_50k", "targeted_burst", scenario.pool,
                        prepared, scenario.arrivals, scenario.epochLength,
                        seed, threads, telemetry, seriesOut, transport));
      if (kind == LiveTransportKind::Sharded) {
        // The hotspot row the rebalancer exists for: the targeted burst
        // piles a hot network onto one sticky anchor, and the
        // epoch-boundary rebalance must collapse the per-processor load
        // variance (load_variance_after vs load_variance_before) while
        // the epochs stay bit-identical to the row above.
        ShardRebalanceConfig rebalance;
        rebalance.enabled = true;
        rebalance.seed = seed ^ 0x5ebaULL;
        report(table, json,
               runPattern("hotspot_tree_50k", "targeted_burst",
                          scenario.pool, prepared, scenario.arrivals,
                          scenario.epochLength, seed, threads, telemetry,
                          seriesOut, transport, rebalance));
      }
    }
  }

  table.print(std::cout);
  runFixedTraceSweep(seed, threads, sweepMaxDemands, json);
  if (!flags.getString("json").empty()) {
    json.write();
  }
  if (seriesOut != nullptr) {
    std::ofstream out(seriesPath);
    out << seriesText;
    std::cout << "wrote " << seriesPath << "\n";
  }
  telemetry.finish();
  return 0;
}
