#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/solution.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "dist/sim_network.hpp"
#include "framework/two_phase.hpp"
#include "net/live_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/incremental.hpp"
#include "span_profile.hpp"

namespace perfbench {

using namespace treesched;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double micros(std::int64_t us) { return static_cast<double>(us); }

/// Total time of the named spans, in ms per operation.
double spanMsPerOp(const SpanProfile& profile, const char* name, double ops) {
  return ratio(micros(profile.total(name).totalMicros) / 1000.0, ops);
}

/// Process high-water resident set (VmHWM), in MB.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

double counterValue(const MetricsRegistry& registry, const std::string& name) {
  const auto& counters = registry.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0
                              : static_cast<double>(it->second.value());
}

// A run with --seed n measures the preset seeds kInputVariants * n + v,
// v = 0 .. kInputVariants - 1, in turn, so its figures average over
// several generated inputs instead of resting on one draw.
constexpr int kInputVariants = 8;

std::uint64_t variantSeed(std::uint64_t seed, int variant) {
  return seed * kInputVariants + static_cast<std::uint64_t>(variant);
}

/// Calls pass(variant, traced) cycling over the input variants until the
/// budget is spent, but always completes the first cycle, and in a
/// traced run the second (traced) one too: a traced run alternates
/// untraced and traced cycles.
template <class Pass>
void runCycles(const RunOptions& options, Pass&& pass) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  const int minCycles = options.trace ? 2 : 1;
  for (int cycle = 0;; ++cycle) {
    const bool traced = options.trace && cycle % 2 == 1;
    for (int v = 0; v < kInputVariants; ++v) {
      if (cycle >= minCycles && Clock::now() >= deadline) return;
      pass(v, traced);
    }
  }
}

/// The paper's a-posteriori certificate for one epoch:
/// val(alpha, beta) / lambda <= bound(Delta, lambda) * profit.
bool certificateHolds(const EpochOutcome& outcome, std::int32_t delta) {
  if (outcome.dualObjective <= 0) return true;
  const double bound =
      approximationBound(RaiseRule::Unit, delta, outcome.lambdaMeasured);
  return outcome.dualUpperBound <= bound * outcome.profit * (1 + 1e-9);
}

/// Span- and registry-derived per-layer figures shared by all workloads;
/// times and counts are per operation.
void protocolLayers(RunResult& result, const SpanProfile& profile,
                    const MetricsRegistry& registry, double ops,
                    std::int32_t stepsPerStage, std::int32_t threads,
                    double outcomeClaims, double outcomeSteals) {
  const auto perOp = [&](const char* name) {
    return ratio(counterValue(registry, name), ops);
  };
  result.set("dist.phase1_ms", spanMsPerOp(profile, "phase1", ops));
  result.set("dist.phase2_ms", spanMsPerOp(profile, "phase2", ops));
  result.set("dist.mis_ms", spanMsPerOp(profile, "mis", ops));
  // The fixed schedule runs stepsPerStage steps in every stage.
  result.set("dist.active_step_share",
             ratio(counterValue(registry, "protocol.active_steps"),
                   counterValue(registry, "protocol.stages") *
                       stepsPerStage));
  result.set("dist.raises", perOp("protocol.raises"));
  result.set("dist.accepts", perOp("protocol.accepts"));
  result.set("dist.rejects", perOp("protocol.rejects"));

  const double busy = micros(profile.total("shard").totalMicros);
  const double phases = micros(profile.total("phase1").totalMicros +
                               profile.total("phase2").totalMicros);
  result.set("engine.shard_busy_ms", spanMsPerOp(profile, "shard", ops));
  result.set("engine.parallel_efficiency", ratio(busy, threads * phases));
  // Claims are reported from both sources: their difference is a known
  // accounting gap and is kept visible as its own metric.
  result.set("engine.claims", ratio(outcomeClaims, ops));
  result.set("engine.claims_registry", perOp("engine.claims"));
  result.set("engine.claims_gap",
             ratio(outcomeClaims - counterValue(registry, "engine.claims"),
                   ops));
  result.set("engine.steals", ratio(outcomeSteals, ops));
}

/// Largest per-processor delivery count and its coefficient of variation.
std::pair<double, double> processorLoad(const NetworkStats& net) {
  double maxLoad = 0, sum = 0, sumSq = 0;
  for (const std::int64_t load : net.processorLoad) {
    const auto x = static_cast<double>(load);
    maxLoad = std::max(maxLoad, x);
    sum += x;
    sumSq += x * x;
  }
  const auto n = static_cast<double>(net.processorLoad.size());
  const double mean = ratio(sum, n);
  const double variance = n > 0 ? std::max(0.0, sumSq / n - mean * mean) : 0;
  return {maxLoad, ratio(std::sqrt(variance), mean)};
}

// ---- Churn workloads ----------------------------------------------------

struct ChurnWorkload {
  std::function<ChurnInputs(std::uint64_t seed)> makeInputs;
  /// Sharded lossy wire with rebalancing; otherwise the sync bus.
  bool sharded = false;
};

OnlineSolverConfig churnSolverConfig(std::uint64_t seed, bool rebalance) {
  OnlineSolverConfig config;
  config.seed = seed + 13;
  config.epsilon = 0.3;
  config.misRoundBudget = 4;
  config.stepsPerStage = 2;
  config.threads = 1;
  config.rebalance.enabled = rebalance;
  config.rebalance.seed = seed ^ 0x5ebaULL;
  return config;
}

/// The bench_online transport-row link: heavy-tailed latency, 5% drops,
/// retransmit timeout 16, one shard processor per 64 pool demands.
LiveTransportConfig shardedWire(std::uint64_t seed, std::int32_t poolDemands) {
  LiveTransportConfig transport;
  transport.kind = LiveTransportKind::Sharded;
  transport.async.seed = seed ^ 0x3b9ULL;
  transport.async.link.latency.model = LatencyModel::HeavyTail;
  transport.async.link.latency.base = 1.0;
  transport.async.link.latency.tailShape = 1.5;
  transport.async.link.latency.tailCap = 64.0;
  transport.async.link.dropProbability = 0.05;
  transport.async.link.retransmitTimeout = 16.0;
  transport.async.shardProcessors = std::max(2, poolDemands / 64);
  return transport;
}

/// One epoch's admitted set, kept for the sync-bus comparison.
struct EpochDigest {
  std::vector<InstanceId> instances;
  double profit = 0;
};

struct ChurnPass {
  double setupS = 0;
  double scenarioMs = 0;
  double traceMs = 0;
  double universeMs = 0;
  double transportMs = 0;
  double solverMs = 0;
  std::vector<double> epochMs;
  std::vector<bool> epochOk;
  /// Every epoch's admitted set; recorded only by a pass that has no
  /// reference to compare against (it becomes the reference).
  std::vector<EpochDigest> digests;
  std::int64_t arrivals = 0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  /// Admitted profit summed over the epochs (the revenue accrued by
  /// charging every admitted demand its profit once per epoch).
  double profitEpochs = 0;
  NetworkStats net;
  std::int64_t affectedInstances = 0;
  std::int64_t churnEpochs = 0;
  double resolveFractionSum = 0;
  std::int64_t migrated = 0;
  std::int64_t claims = 0;
  std::int64_t steals = 0;
  double peakVarianceBefore = 0;
  double peakVarianceAfter = 0;
  std::int64_t stackSets = 0;
  std::int64_t storedRaises = 0;
  // Shadow-universe replay timings (traced passes only).
  double addMicros = 0;
  double retireMicros = 0;
  std::int64_t adds = 0;
  std::int64_t retires = 0;
};

/// One pass over one input: set-up, then every epoch batch, each epoch
/// checked. With `expected` set, every epoch must also equal the same
/// epoch of `expected` bit for bit; without it the pass records its own
/// digests.
ChurnPass runChurnPass(const ChurnWorkload& w, std::uint64_t seed,
                       Tracer* tracer, MetricsRegistry* registry,
                       bool shadow, bool syncBus,
                       const std::vector<EpochDigest>* expected) {
  ChurnPass pass;
  const auto begin = Clock::now();
  const ChurnInputs inputs = w.makeInputs(seed);
  pass.scenarioMs = inputs.scenarioMs;
  pass.traceMs = inputs.traceMs;

  auto t = Clock::now();
  DynamicUniverse universe = makeChurnUniverse(inputs);
  pass.universeMs = msSince(t);

  t = Clock::now();
  const std::unique_ptr<Transport> transport = makeLiveTransport(
      inputs.numDemands(), inputs.access(),
      syncBus ? LiveTransportConfig{}
              : shardedWire(seed, inputs.numDemands()));
  pass.transportMs = msSince(t);

  t = Clock::now();
  OnlineSolverConfig config = churnSolverConfig(seed, !syncBus);
  config.tracer = tracer;
  config.metrics = registry;
  IncrementalSolver solver(universe, config, *transport);
  pass.solverMs = msSince(t);
  pass.setupS = msSince(begin) / 1000.0;

  std::optional<ShadowUniverseReplay> mirror;
  if (shadow) mirror.emplace(makeChurnUniverse(inputs));
  const std::int32_t delta = universe.maxCriticalSize();
  pass.epochMs.reserve(inputs.batches.size());
  for (const EpochBatch& batch : inputs.batches) {
    const auto epochBegin = Clock::now();
    const EpochOutcome outcome =
        solver.applyEpoch(batch.arrivals, batch.departures);
    pass.epochMs.push_back(msSince(epochBegin));

    pass.arrivals += outcome.arrivals;
    pass.rounds += outcome.rounds;
    pass.messages += outcome.messages;
    pass.profitEpochs += outcome.profit;
    pass.affectedInstances += outcome.affectedInstances;
    if (outcome.arrivals + outcome.departures > 0) {
      pass.resolveFractionSum += outcome.resolveFraction;
      ++pass.churnEpochs;
    }
    pass.migrated += outcome.demandsMigrated;
    pass.claims += outcome.engineClaims;
    pass.steals += outcome.engineSteals;
    pass.peakVarianceBefore =
        std::max(pass.peakVarianceBefore, outcome.loadVarianceBefore);
    pass.peakVarianceAfter =
        std::max(pass.peakVarianceAfter, outcome.loadVarianceAfter);

    bool ok = false;
    try {
      ok = validateSolution(solver.universe(), outcome.solution).feasible &&
           certificateHolds(outcome, delta);
      if (mirror) {
        mirror->apply(batch);
        const DynamicUniverse& live = mirror->universe();
        ok = ok && live.numLiveDemands() == universe.numLiveDemands() &&
             live.numLiveInstances() == universe.numLiveInstances();
        for (const DemandId d : batch.arrivals) {
          ok = ok && live.isLive(d) && universe.isLive(d);
        }
      }
    } catch (const std::exception&) {
      ok = false;
    }
    const std::size_t k = pass.epochOk.size();
    if (expected == nullptr) {
      pass.digests.push_back({outcome.solution.instances, outcome.profit});
    } else if (k >= expected->size() ||
               outcome.solution.instances != (*expected)[k].instances ||
               outcome.profit != (*expected)[k].profit) {
      ok = false;
    }
    pass.epochOk.push_back(ok);
  }
  if (expected != nullptr && pass.epochOk.size() != expected->size() &&
      !pass.epochOk.empty()) {
    pass.epochOk.back() = false;
  }
  if (mirror) {
    pass.addMicros = mirror->addMicros();
    pass.retireMicros = mirror->retireMicros();
    pass.adds = mirror->adds();
    pass.retires = mirror->retires();
  }
  pass.net = transport->stats();
  pass.stackSets = solver.stackSets();
  pass.storedRaises = solver.storedRaises();
  return pass;
}

RunResult runChurn(const ChurnWorkload& w, const RunOptions& options) {
  SpanProfile profile;
  Tracer tracer(&profile);
  MetricsRegistry registry;
  // Every pass of a variant replays the same inputs, so its epochs must
  // repeat a reference bit for bit: the variant's first pass on the sync
  // bus, a sync-bus replay (run before the timed passes) on the sharded
  // wire.
  std::vector<std::vector<EpochDigest>> reference(kInputVariants);
  if (w.sharded) {
    for (int v = 0; v < kInputVariants; ++v) {
      reference[static_cast<std::size_t>(v)] =
          runChurnPass(w, variantSeed(options.seed, v), nullptr, nullptr,
                       false, /*syncBus=*/true, nullptr)
              .digests;
    }
  }
  std::vector<ChurnPass> untraced;
  std::vector<ChurnPass> traced;
  RunResult result;
  runCycles(options, [&](int variant, bool tracedPass) {
    auto& expected = reference[static_cast<std::size_t>(variant)];
    ChurnPass pass = runChurnPass(
        w, variantSeed(options.seed, variant), tracedPass ? &tracer : nullptr,
        tracedPass ? &registry : nullptr, /*shadow=*/tracedPass,
        /*syncBus=*/!w.sharded, expected.empty() ? nullptr : &expected);
    if (expected.empty()) expected = std::move(pass.digests);
    result.attempted += static_cast<std::int64_t>(pass.epochOk.size());
    result.failed +=
        std::count(pass.epochOk.begin(), pass.epochOk.end(), false);
    (tracedPass ? traced : untraced).push_back(std::move(pass));
  });

  if (!options.trace) {
    // Deterministic figures come from the first cycle (one pass per
    // variant); timings pool every pass.
    double epochs = 0, rounds = 0, messages = 0, profitEpochs = 0;
    double transmissions = 0, virtualTime = 0;
    for (int v = 0; v < kInputVariants; ++v) {
      const ChurnPass& pass = untraced[static_cast<std::size_t>(v)];
      epochs += static_cast<double>(pass.epochMs.size());
      rounds += static_cast<double>(pass.rounds);
      messages += static_cast<double>(pass.messages);
      profitEpochs += pass.profitEpochs;
      transmissions += static_cast<double>(pass.net.transmissions);
      virtualTime += pass.net.virtualTime;
    }
    std::vector<double> epochMs, setupS;
    double arrivals = 0, epochMsSum = 0;
    for (const ChurnPass& pass : untraced) {
      epochMs.insert(epochMs.end(), pass.epochMs.begin(), pass.epochMs.end());
      setupS.push_back(pass.setupS);
      arrivals += static_cast<double>(pass.arrivals);
    }
    for (const double ms : epochMs) epochMsSum += ms;

    result.set("setup_s", median(setupS));
    result.set("op_ms_p50", percentile(epochMs, 0.5));
    result.set("op_ms_p90", percentile(epochMs, 0.9));
    result.set("demands_per_s", ratio(arrivals, epochMsSum / 1000.0));
    result.set("revenue", ratio(profitEpochs, epochs));
    result.set("rounds_per_op", ratio(rounds, epochs));
    result.set("messages_per_op", ratio(messages, epochs));
    // The sync bus keeps no wire counters: it delivers each message
    // once, one round per time unit, so its wire cost is its messages
    // and its wire time its rounds.
    result.set("wire_tx_per_op",
               ratio(w.sharded ? transmissions : messages, epochs));
    result.set("virtual_time_per_op",
               ratio(w.sharded ? virtualTime : rounds, epochs));
    result.set("peak_rss_mb", peakRssMb());
    return result;
  }

  // Call timings from the untraced passes, everything else from the
  // traced ones; counts and span times are per epoch.
  std::vector<double> scenarioMs, traceMs, universeMs, transportMs, solverMs;
  double untracedEpochs = 0, untracedMs = 0;
  for (const ChurnPass& pass : untraced) {
    scenarioMs.push_back(pass.scenarioMs);
    traceMs.push_back(pass.traceMs);
    universeMs.push_back(pass.universeMs);
    transportMs.push_back(pass.transportMs);
    solverMs.push_back(pass.solverMs);
    untracedEpochs += static_cast<double>(pass.epochMs.size());
    for (const double ms : pass.epochMs) untracedMs += ms;
  }
  result.set("gen.scenario_ms", median(scenarioMs));
  result.set("gen.trace_ms", median(traceMs));
  result.set("core.dynamic_universe_build_ms", median(universeMs));
  result.set("net.transport_ctor_ms", median(transportMs));
  result.set("online.solver_ctor_ms", median(solverMs));

  double ops = 0, tracedMs = 0, addUs = 0, retireUs = 0, adds = 0;
  double retires = 0, affected = 0, fractionSum = 0, churnEpochs = 0;
  double migrated = 0, claims = 0, steals = 0, varBefore = 0, varAfter = 0;
  double transmissions = 0, retransmissions = 0, drops = 0, duplicates = 0;
  double messages = 0, maxLoad = 0, loadCv = 0, planeGrowth = 0;
  double stackSets = 0, storedRaises = 0;
  for (const ChurnPass& pass : traced) {
    ops += static_cast<double>(pass.epochMs.size());
    for (const double ms : pass.epochMs) tracedMs += ms;
    addUs += pass.addMicros;
    retireUs += pass.retireMicros;
    adds += static_cast<double>(pass.adds);
    retires += static_cast<double>(pass.retires);
    affected += static_cast<double>(pass.affectedInstances);
    fractionSum += pass.resolveFractionSum;
    churnEpochs += static_cast<double>(pass.churnEpochs);
    migrated += static_cast<double>(pass.migrated);
    claims += static_cast<double>(pass.claims);
    steals += static_cast<double>(pass.steals);
    varBefore = std::max(varBefore, pass.peakVarianceBefore);
    varAfter = std::max(varAfter, pass.peakVarianceAfter);
    transmissions += static_cast<double>(pass.net.transmissions);
    retransmissions += static_cast<double>(pass.net.retransmissions);
    drops += static_cast<double>(pass.net.drops);
    duplicates += static_cast<double>(pass.net.duplicates);
    messages += static_cast<double>(pass.net.messages);
    const auto [passMax, passCv] = processorLoad(pass.net);
    maxLoad = std::max(maxLoad, passMax);
    loadCv += passCv;
    planeGrowth += static_cast<double>(pass.net.planeGrowthEvents);
    stackSets += static_cast<double>(pass.stackSets);
    storedRaises += static_cast<double>(pass.storedRaises);
  }
  const auto passes = static_cast<double>(traced.size());

  result.set("core.add_us_per_arrival", ratio(addUs, adds));
  result.set("core.retire_us_per_departure", ratio(retireUs, retires));
  const OnlineSolverConfig solver = churnSolverConfig(options.seed, false);
  protocolLayers(result, profile, registry, ops, solver.stepsPerStage,
                 solver.threads, claims, steals);
  result.set("engine.plane_growth_events", ratio(planeGrowth, passes));

  result.set("net.transmissions", ratio(transmissions, ops));
  result.set("net.retransmissions", ratio(retransmissions, ops));
  result.set("net.drops", ratio(drops, ops));
  result.set("net.duplicates", ratio(duplicates, ops));
  result.set("net.payload_share", ratio(messages, transmissions));
  result.set("net.max_processor_load", maxLoad);
  result.set("net.processor_load_cv", ratio(loadCv, passes));
  result.set("net.load_variance_before", varBefore);
  result.set("net.load_variance_after", varAfter);
  result.set("net.demands_migrated", ratio(migrated, ops));
  result.set("net.rebalance_ms", spanMsPerOp(profile, "rebalance", ops));

  // online_epoch is the root span of an epoch on tid 0: its self time is
  // the epoch's work that no child span (mutate, rebalance, phase1,
  // phase2, admit) covers.
  const SpanProfile::Totals epoch = profile.at("online_epoch", 0);
  result.set("online.epoch_ms", ratio(micros(epoch.totalMicros) / 1000.0, ops));
  result.set("online.epoch_self_ms",
             ratio(micros(epoch.selfMicros) / 1000.0, ops));
  result.set("online.epoch_self_share",
             ratio(micros(epoch.selfMicros), micros(epoch.totalMicros)));
  result.set("online.mutate_ms", spanMsPerOp(profile, "mutate", ops));
  result.set("online.admit_ms", spanMsPerOp(profile, "admit", ops));
  result.set("online.affected_instances_per_epoch", ratio(affected, ops));
  result.set("online.resolve_fraction", ratio(fractionSum, churnEpochs));
  result.set("online.stack_sets", ratio(stackSets, passes));
  result.set("online.stored_raises", ratio(storedRaises, passes));
  result.set("obs.trace_overhead_pct",
             100.0 * (ratio(ratio(tracedMs, ops),
                            ratio(untracedMs, untracedEpochs)) -
                      1.0));
  return result;
}

}  // namespace

DynamicUniverse makeChurnUniverse(const ChurnInputs& inputs) {
  return inputs.line ? makeDynamicLineUniverse(inputs.line)
                     : makeDynamicTreeUniverse(inputs.tree);
}

void ShadowUniverseReplay::apply(const EpochBatch& batch) {
  for (const DemandId d : batch.departures) {
    const auto begin = Clock::now();
    universe_.retireDemand(d);
    retireMicros_ += msSince(begin) * 1000.0;
    ++retires_;
  }
  for (const DemandId d : batch.arrivals) {
    const auto begin = Clock::now();
    universe_.addDemand(d);
    addMicros_ += msSince(begin) * 1000.0;
    ++adds_;
  }
}

RunResult runSparsePoolChurn(const RunOptions& options,
                             const SparseChurnSize& size) {
  ChurnWorkload w;
  w.makeInputs = [&](std::uint64_t seed) {
    return makeSparseChurnInputs(seed, size);
  };
  return runChurn(w, options);
}

RunResult runHotspotSharded(const RunOptions& options,
                            const HotspotSize& size) {
  ChurnWorkload w;
  w.makeInputs = [&](std::uint64_t seed) {
    return makeHotspotInputs(seed, size);
  };
  w.sharded = true;
  return runChurn(w, options);
}

// ---- One-shot workload ----------------------------------------------------

RunResult runOneshotCdnTree(const RunOptions& options,
                            const OneshotSize& size) {
  DistributedOptions base;
  base.epsilon = 0.3;
  base.misRoundBudget = 4;
  base.stepsPerStage = 2;
  base.threads = 2;

  SpanProfile profile;
  Tracer tracer(&profile);
  MetricsRegistry registry;

  struct Solve {
    double genMs = 0, universeMs = 0, layeringMs = 0, commMs = 0, runMs = 0;
    double solveMs = 0;
  };
  /// The first solve of each variant: its reference check and the
  /// deterministic figures.
  struct Variant {
    bool seen = false;
    std::vector<InstanceId> referenceSolution;
    double referenceProfit = 0;
    double profit = 0;
    double rounds = 0;
    double messages = 0;
  };
  std::vector<Variant> variants(kInputVariants);
  std::vector<Solve> untraced;
  std::vector<Solve> traced;
  RunResult result;
  double tracedClaims = 0, tracedSteals = 0, planeGrowth = 0;

  runCycles(options, [&](int v, bool tracedSolve) {
    const std::uint64_t seed = variantSeed(options.seed, v);
    Solve s;
    auto t = Clock::now();
    const TreeProblem problem = makeOneshotProblem(seed, size);
    s.genMs = msSince(t);

    const auto solveBegin = Clock::now();
    t = solveBegin;
    InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
    universe.buildConflicts();
    s.universeMs = msSince(t);
    t = Clock::now();
    const TreeLayeringResult layering = buildTreeLayering(problem, universe);
    s.layeringMs = msSince(t);
    t = Clock::now();
    SimNetwork bus(communicationGraph(problem.access, problem.numNetworks()));
    s.commMs = msSince(t);
    t = Clock::now();
    DistributedOptions run = base;
    run.seed = seed + 7;
    run.tracer = tracedSolve ? &tracer : nullptr;
    run.metrics = tracedSolve ? &registry : nullptr;
    const DistributedResult r =
        runDistributedOverTransport(universe, layering.layering, bus, run);
    s.runMs = msSince(t);
    s.solveMs = msSince(solveBegin);

    // Output check: the centralized engine under the same fixed
    // schedule and seed is the reference, computed once per variant.
    Variant& variant = variants[static_cast<std::size_t>(v)];
    bool ok = false;
    try {
      if (!variant.seen) {
        FrameworkConfig fw;
        fw.epsilon = run.epsilon;
        fw.seed = run.seed;
        fw.misRoundBudget = run.misRoundBudget;
        fw.stepsPerStage = run.stepsPerStage;
        fw.fixedSchedule = true;
        const TwoPhaseResult central =
            runTwoPhase(universe, layering.layering, fw);
        variant.referenceSolution = central.solution.instances;
        std::sort(variant.referenceSolution.begin(),
                  variant.referenceSolution.end());
        variant.referenceProfit = central.profit;
        variant.profit = r.profit;
        variant.rounds = static_cast<double>(r.network.rounds);
        variant.messages = static_cast<double>(r.network.messages);
        variant.seen = true;
      }
      ok = r.localViewsConsistent &&
           r.solution.instances == variant.referenceSolution &&
           r.profit == variant.referenceProfit &&
           validateSolution(universe, r.solution).feasible;
    } catch (const std::exception&) {
      ok = false;
    }
    ++result.attempted;
    if (!ok) ++result.failed;
    if (tracedSolve) {
      tracedClaims += static_cast<double>(r.engineClaims);
      tracedSteals += static_cast<double>(r.engineSteals);
      planeGrowth += static_cast<double>(r.network.planeGrowthEvents);
    }
    (tracedSolve ? traced : untraced).push_back(s);
  });

  std::vector<double> genMs, solveMs;
  double solveMsSum = 0;
  for (const Solve& s : untraced) {
    genMs.push_back(s.genMs);
    solveMs.push_back(s.solveMs);
    solveMsSum += s.solveMs;
  }
  if (!options.trace) {
    double profit = 0, rounds = 0, messages = 0;
    for (const Variant& variant : variants) {
      profit += variant.profit;
      rounds += variant.rounds;
      messages += variant.messages;
    }
    result.set("setup_s", median(genMs) / 1000.0);
    result.set("op_ms_p50", percentile(solveMs, 0.5));
    result.set("op_ms_p90", percentile(solveMs, 0.9));
    result.set("demands_per_s",
               ratio(static_cast<double>(size.demands) *
                         static_cast<double>(untraced.size()),
                     solveMsSum / 1000.0));
    result.set("revenue", profit / kInputVariants);
    result.set("rounds_per_op", rounds / kInputVariants);
    result.set("messages_per_op", messages / kInputVariants);
    // The one-shot solve runs on the sync bus (see runChurn).
    result.set("wire_tx_per_op", messages / kInputVariants);
    result.set("virtual_time_per_op", rounds / kInputVariants);
    result.set("peak_rss_mb", peakRssMb());
    return result;
  }

  std::vector<double> universeMs, layeringMs, commMs, runMs;
  for (const Solve& s : untraced) {
    universeMs.push_back(s.universeMs);
    layeringMs.push_back(s.layeringMs);
    commMs.push_back(s.commMs);
    runMs.push_back(s.runMs);
  }
  double tracedSolveMs = 0;
  for (const Solve& s : traced) tracedSolveMs += s.solveMs;
  const auto ops = static_cast<double>(traced.size());
  result.set("gen.scenario_ms", median(genMs));
  result.set("core.universe_ms", median(universeMs));
  result.set("decomp.layering_ms", median(layeringMs));
  result.set("dist.comm_graph_ms", median(commMs));
  result.set("dist.run_ms", median(runMs));
  protocolLayers(result, profile, registry, ops, base.stepsPerStage,
                 base.threads, tracedClaims, tracedSteals);
  result.set("engine.plane_growth_events", ratio(planeGrowth, ops));
  result.set("obs.trace_overhead_pct",
             100.0 * (ratio(ratio(tracedSolveMs, ops),
                            ratio(solveMsSum,
                                  static_cast<double>(untraced.size()))) -
                      1.0));
  return result;
}

}  // namespace perfbench
