// Acceptance gate of the online scheduling subsystem (src/online/).
//
// The sweep drives 5 seeds x {tree, line} x {poisson, flash_crowd}
// churn traces through the epoch-batched churn engine and checks, per
// epoch, the incremental re-solver's contract:
//  * the admitted solution is feasible on the pool universe;
//  * revenue is within the paper's approximation factor of the
//    from-scratch runTwoPhaseRestricted on the surviving demand set
//    (whose profit is itself upper-bounded by the incremental dual
//    certificate);
//  * epochs whose affected region covered the whole active set are
//    bit-identical to the from-scratch solve — solution, profit, dual
//    objective and measured lambda;
//  * the persistent protocol engine's local-view audit passes;
// plus the pool-padding invariance gate (epoch outcomes do not depend on
// demands that never arrive), and unit coverage of the arrival
// processes, the epoch batcher, the incremental communication graph and
// the live-transport mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dist/sim_network.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "online/churn_engine.hpp"
#include "online/incremental.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

constexpr std::uint64_t kSeeds[] = {3, 14, 25, 36, 47};

// Test-scale churn workload: enough networks (numDemands / 8) that an
// epoch's churn touches a strict subset of them, so the warm
// (partial-region) path is exercised alongside the full re-solves.
constexpr std::int32_t kPoolDemands = 216;
constexpr double kHorizon = 128.0;

ArrivalConfig sweepArrivals(ArrivalModel model, std::uint64_t seed) {
  ArrivalConfig config;
  config.model = model;
  config.seed = seed ^ 0xa1157ULL;
  config.horizon = kHorizon;
  config.meanLifetime = 48.0;
  config.burstCenter = 0.3;
  config.burstWidth = 0.08;
  config.burstFraction = 0.5;
  return config;
}

ChurnEngineConfig sweepEngine(std::uint64_t seed) {
  ChurnEngineConfig config;
  config.epochLength = 8.0;
  config.solver.seed = seed * 31 + 5;
  config.solver.epsilon = 0.35;
  config.solver.misRoundBudget = 4;
  config.solver.stepsPerStage = 2;
  // Epoch re-solves are bit-identical at any thread count (the engine
  // guarantee), so half the sweep runs the parallel sections.
  config.solver.threads = seed % 2 == 0 ? 2 : 1;
  return config;
}

FrameworkConfig scratchConfig(const OnlineSolverConfig& solver,
                              std::uint64_t protocolSeed) {
  FrameworkConfig config;
  config.epsilon = solver.epsilon;
  config.raise = solver.rule;
  config.hmin = solver.hmin;
  config.seed = protocolSeed;
  config.misRoundBudget = solver.misRoundBudget;
  config.fixedSchedule = true;
  config.stepsPerStage = solver.stepsPerStage;
  return config;
}

/// Replays the epoch batches against a demand mask and returns the
/// active instance list after each epoch.
std::vector<InstanceId> activeInstancesAfter(
    const InstanceUniverse& universe, const std::vector<std::uint8_t>& mask) {
  std::vector<InstanceId> ids;
  for (DemandId d = 0; d < universe.numDemands(); ++d) {
    if (mask[static_cast<std::size_t>(d)] == 0) continue;
    const auto span = universe.instancesOfDemand(d);
    ids.insert(ids.end(), span.begin(), span.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The shared per-epoch verification: feasibility, the approximation
/// gate against from-scratch, and bit-identity on full re-solves. The
/// epochs run over `dynamic` (the incremental engine's own universe);
/// the static pool `universe`/`layering` drive the from-scratch
/// comparators.
void verifyChurnRun(DynamicUniverse& dynamic, const InstanceUniverse& universe,
                    const Layering& layering, const ChurnTrace& trace,
                    const ChurnEngineConfig& config) {
  const ChurnRunResult result = runChurnOverTrace(dynamic, trace, config);
  ASSERT_FALSE(result.epochs.empty());

  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(universe.numDemands()), 0);
  const std::vector<EpochBatch> batches =
      batchTrace(trace, config.epochLength);
  ASSERT_EQ(batches.size(), result.epochs.size());

  std::int32_t fullResolves = 0;
  std::int32_t warmChurnEpochs = 0;
  for (std::size_t k = 0; k < result.epochs.size(); ++k) {
    const EpochOutcome& epoch = result.epochs[k];
    for (const DemandId d : batches[k].departures) {
      mask[static_cast<std::size_t>(d)] = 0;
    }
    for (const DemandId d : batches[k].arrivals) {
      mask[static_cast<std::size_t>(d)] = 1;
    }
    const std::vector<InstanceId> active =
        activeInstancesAfter(universe, mask);
    ASSERT_EQ(epoch.activeInstances,
              static_cast<std::int64_t>(active.size()));
    EXPECT_TRUE(epoch.localViewsConsistent) << "epoch " << k;

    const ValidationReport report =
        validateSolution(universe, epoch.solution);
    EXPECT_TRUE(report.feasible) << report.firstViolation;
    EXPECT_DOUBLE_EQ(epoch.profit,
                     solutionProfit(universe, epoch.solution));

    const TwoPhaseResult scratch = runTwoPhaseRestricted(
        universe, layering, scratchConfig(config.solver, epoch.protocolSeed),
        active);

    if (epoch.fullResolve) {
      ++fullResolves;
      // The whole instance was affected: bit-identical to from-scratch.
      std::vector<InstanceId> incremental = epoch.solution.instances;
      std::vector<InstanceId> reference = scratch.solution.instances;
      std::sort(incremental.begin(), incremental.end());
      std::sort(reference.begin(), reference.end());
      EXPECT_EQ(incremental, reference);
      EXPECT_EQ(epoch.profit, scratch.profit);
      EXPECT_EQ(epoch.dualObjective, scratch.dualObjective);
      EXPECT_EQ(epoch.lambdaMeasured, scratch.stats.lambdaMeasured);
    } else {
      if (epoch.arrivals + epoch.departures > 0) ++warmChurnEpochs;
      // Warm epoch: the slackness invariant must still hold over the
      // whole active set...
      if (!active.empty()) {
        EXPECT_GE(epoch.lambdaMeasured,
                  scratch.stats.lambdaTarget * (1.0 - 1e-6));
      }
      // ...so the dual certificate upper-bounds OPT(active), hence also
      // the from-scratch profit...
      EXPECT_LE(scratch.profit, epoch.dualUpperBound * (1.0 + 1e-9));
      // ...and the admitted revenue is within the approximation factor.
      const double bound = approximationBound(
          config.solver.rule, std::max(1, layering.maxCriticalSize),
          std::max(epoch.lambdaMeasured, 1e-9));
      EXPECT_GE(epoch.profit * bound, scratch.profit * (1.0 - 1e-9));
    }
  }
  // The sweep must exercise both paths: the first admitting epoch is a
  // full re-solve, and the localized churn afterwards must produce warm
  // partial-region epochs (resolve fraction < 1 on average).
  EXPECT_GE(fullResolves, 1);
  EXPECT_GE(warmChurnEpochs, 1);
  EXPECT_LT(result.meanResolveFraction, 1.0);
  EXPECT_GT(result.meanResolveFraction, 0.0);
}

class OnlineChurnSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineChurnSweep, TreePoissonEpochsMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  const ChurnTreeScenario scenario = makeFlashCrowdTree50k(seed,
                                                           kPoolDemands);
  const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(scenario.pool);
  verifyChurnRun(dynamic, prepared.universe, prepared.layering,
                 generateChurnTrace(
                     sweepArrivals(ArrivalModel::Poisson, seed),
                     scenario.pool.numDemands()),
                 sweepEngine(seed));
}

TEST_P(OnlineChurnSweep, TreeFlashCrowdEpochsMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  const ChurnTreeScenario scenario = makeFlashCrowdTree50k(seed,
                                                           kPoolDemands);
  const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(scenario.pool);
  verifyChurnRun(dynamic, prepared.universe, prepared.layering,
                 generateChurnTrace(
                     sweepArrivals(ArrivalModel::FlashCrowd, seed),
                     scenario.pool.numDemands()),
                 sweepEngine(seed));
}

TEST_P(OnlineChurnSweep, LinePoissonEpochsMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  const ChurnLineScenario scenario =
      makeDiurnalMetroLine100k(seed, kPoolDemands);
  const PreparedRun prepared = prepareUnitLineRun(scenario.pool);
  DynamicUniverse dynamic = makeDynamicLineUniverse(scenario.pool);
  verifyChurnRun(dynamic, prepared.universe, prepared.layering,
                 generateChurnTrace(
                     sweepArrivals(ArrivalModel::Poisson, seed),
                     scenario.pool.numDemands()),
                 sweepEngine(seed));
}

TEST_P(OnlineChurnSweep, LineFlashCrowdEpochsMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  const ChurnLineScenario scenario =
      makeDiurnalMetroLine100k(seed, kPoolDemands);
  const PreparedRun prepared = prepareUnitLineRun(scenario.pool);
  DynamicUniverse dynamic = makeDynamicLineUniverse(scenario.pool);
  verifyChurnRun(dynamic, prepared.universe, prepared.layering,
                 generateChurnTrace(
                     sweepArrivals(ArrivalModel::FlashCrowd, seed),
                     scenario.pool.numDemands()),
                 sweepEngine(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineChurnSweep, ::testing::ValuesIn(kSeeds),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

// ---- Warm-start protocol entry point ----

// The restricted distributed run must reproduce the restricted
// centralized engine bit for bit — the obligation the full-resolve gate
// builds on, checked here directly against a hand-picked restriction.
TEST(WarmStartProtocol, RestrictedRunMatchesRestrictedCentralized) {
  TreeScenarioConfig cfg;
  cfg.seed = 11;
  cfg.numVertices = 24;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 20;
  cfg.demands.accessProbability = 0.6;
  const TreeProblem problem = makeTreeScenario(cfg);
  const PreparedRun prepared = prepareUnitTreeRun(problem);

  std::vector<InstanceId> restriction;
  for (DemandId d = 0; d < prepared.universe.numDemands(); d += 2) {
    const auto span = prepared.universe.instancesOfDemand(d);
    restriction.insert(restriction.end(), span.begin(), span.end());
  }
  std::sort(restriction.begin(), restriction.end());
  ASSERT_FALSE(restriction.empty());

  DistributedOptions dopt;
  dopt.seed = 29;
  dopt.misRoundBudget = 5;
  dopt.stepsPerStage = 3;
  dopt.recordRaiseLog = true;
  WarmStart warm;
  warm.activeInstances = restriction;
  SimNetwork bus(prepared.adjacency);
  const DistributedResult dist = runDistributedWarmStart(
      prepared.universe, prepared.layering, bus, dopt, warm);

  FrameworkConfig copt;
  copt.seed = dopt.seed;
  copt.misRoundBudget = dopt.misRoundBudget;
  copt.fixedSchedule = true;
  copt.stepsPerStage = dopt.stepsPerStage;
  const TwoPhaseResult central = runTwoPhaseRestricted(
      prepared.universe, prepared.layering, copt, restriction);

  std::vector<InstanceId> reference = central.solution.instances;
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(dist.solution.instances, reference);
  EXPECT_EQ(dist.profit, central.profit);
  EXPECT_EQ(dist.dualObjective, central.dualObjective);
  EXPECT_EQ(dist.lambdaMeasured, central.stats.lambdaMeasured);
  EXPECT_EQ(dist.raises, central.stats.raises);
  EXPECT_TRUE(dist.localViewsConsistent);

  // Only restricted instances were raised, and the log's per-tuple
  // groups are the phase-1 stack (members ascending).
  EXPECT_EQ(static_cast<std::int64_t>(dist.raiseLog.size()), dist.raises);
  for (std::size_t r = 0; r < dist.raiseLog.size(); ++r) {
    EXPECT_TRUE(std::binary_search(restriction.begin(), restriction.end(),
                                   dist.raiseLog[r].instance));
    if (r > 0 && dist.raiseLog[r - 1].tuple == dist.raiseLog[r].tuple) {
      EXPECT_LT(dist.raiseLog[r - 1].instance, dist.raiseLog[r].instance);
    }
  }

  // An empty warm start is the classic full run.
  SimNetwork bus2(prepared.adjacency);
  const DistributedResult full = runDistributedWarmStart(
      prepared.universe, prepared.layering, bus2, dopt, WarmStart{});
  const DistributedResult classic = runDistributedUnitTree(problem, dopt);
  EXPECT_EQ(full.solution.instances, classic.solution.instances);
  EXPECT_EQ(full.profit, classic.profit);
}

// ---- Pool-padding invariance ----

DynamicUniverse makeDynamicUniverse(const TreeProblem& pool) {
  return makeDynamicTreeUniverse(pool);
}
DynamicUniverse makeDynamicUniverse(const LineProblem& pool) {
  return makeDynamicLineUniverse(pool);
}

/// The pool plus `copies` duplicates of its demands (cycling from demand
/// 0), appended at the end so no original id moves. A copy repeats an
/// existing demand's shape and access, so the pool constants a schedule
/// depends on — profit range, length range, layer count and max
/// critical size — are unchanged.
template <class Problem>
Problem padPool(const Problem& pool, std::int32_t copies) {
  Problem padded = pool;
  for (std::int32_t c = 0; c < copies; ++c) {
    const auto source = static_cast<std::size_t>(c % pool.numDemands());
    auto demand = pool.demands[source];
    demand.id = padded.numDemands();
    padded.demands.push_back(demand);
    padded.access.push_back(pool.access[source]);
  }
  return padded;
}

/// Every field of an epoch outcome except the engine's performance
/// tallies (claims, steals) and the wire-placement accounting.
void expectSameEpoch(const EpochOutcome& a, const EpochOutcome& b,
                     std::size_t k) {
  EXPECT_EQ(a.epoch, b.epoch) << "epoch " << k;
  EXPECT_EQ(a.protocolSeed, b.protocolSeed) << "epoch " << k;
  EXPECT_EQ(a.arrivals, b.arrivals) << "epoch " << k;
  EXPECT_EQ(a.departures, b.departures) << "epoch " << k;
  EXPECT_EQ(a.activeDemands, b.activeDemands) << "epoch " << k;
  EXPECT_EQ(a.activeInstances, b.activeInstances) << "epoch " << k;
  EXPECT_EQ(a.affectedDemands, b.affectedDemands) << "epoch " << k;
  EXPECT_EQ(a.affectedInstances, b.affectedInstances) << "epoch " << k;
  EXPECT_EQ(a.resolveFraction, b.resolveFraction) << "epoch " << k;
  EXPECT_EQ(a.fullResolve, b.fullResolve) << "epoch " << k;
  EXPECT_EQ(a.solution.instances, b.solution.instances) << "epoch " << k;
  EXPECT_EQ(a.profit, b.profit) << "epoch " << k;
  EXPECT_EQ(a.dualObjective, b.dualObjective) << "epoch " << k;
  EXPECT_EQ(a.dualUpperBound, b.dualUpperBound) << "epoch " << k;
  EXPECT_EQ(a.lambdaMeasured, b.lambdaMeasured) << "epoch " << k;
  EXPECT_EQ(a.raises, b.raises) << "epoch " << k;
  EXPECT_EQ(a.rounds, b.rounds) << "epoch " << k;
  EXPECT_EQ(a.messages, b.messages) << "epoch " << k;
  EXPECT_EQ(a.newlyAdmittedDemands, b.newlyAdmittedDemands) << "epoch " << k;
  EXPECT_TRUE(a.localViewsConsistent) << "epoch " << k;
  EXPECT_TRUE(b.localViewsConsistent) << "epoch " << k;
}

/// Runs `batches` through one solver over `pool` and returns the epochs.
template <class Problem>
std::vector<EpochOutcome> runBatches(const Problem& pool,
                                     const std::vector<EpochBatch>& batches,
                                     const OnlineSolverConfig& config) {
  DynamicUniverse universe = makeDynamicUniverse(pool);
  SimNetwork bus(std::vector<std::vector<std::int32_t>>(
      static_cast<std::size_t>(pool.numDemands())));
  IncrementalSolver solver(universe, config, bus);
  std::vector<EpochOutcome> epochs;
  for (const EpochBatch& batch : batches) {
    epochs.push_back(solver.applyEpoch(batch.arrivals, batch.departures));
    EXPECT_LT(solver.maxLhsDeviationFromReplay(), 1e-7);
  }
  return epochs;
}

/// The padding gate: the same batches over the pool and over the pool
/// padded with never-arriving copies give identical epochs.
template <class Problem>
void expectPaddingInvariant(const Problem& pool,
                            const std::vector<EpochBatch>& batches,
                            const OnlineSolverConfig& config) {
  const Problem padded = padPool(pool, 3 * pool.numDemands());
  {
    const DynamicUniverse a = makeDynamicUniverse(pool);
    const DynamicUniverse b = makeDynamicUniverse(padded);
    ASSERT_EQ(a.maxCriticalSize(), b.maxCriticalSize());
    ASSERT_EQ(a.numGroups(), b.numGroups());
    ASSERT_EQ(a.profitMax(), b.profitMax());
    ASSERT_EQ(a.profitMin(), b.profitMin());
  }
  const std::vector<EpochOutcome> plain = runBatches(pool, batches, config);
  const std::vector<EpochOutcome> wide = runBatches(padded, batches, config);
  ASSERT_EQ(plain.size(), wide.size());
  for (std::size_t k = 0; k < plain.size(); ++k) {
    expectSameEpoch(plain[k], wide[k], k);
  }
}

OnlineSolverConfig paddingSolver(std::int32_t threads) {
  OnlineSolverConfig config = sweepEngine(3).solver;
  config.threads = threads;
  return config;
}

TEST(PoolPadding, TreeEpochsIgnoreNeverArrivingDemands) {
  const ChurnTreeScenario scenario = makeFlashCrowdTree50k(5, kPoolDemands);
  const std::vector<EpochBatch> batches = batchTrace(
      generateChurnTrace(sweepArrivals(ArrivalModel::FlashCrowd, 5),
                         scenario.pool.numDemands()),
      8.0);
  expectPaddingInvariant(scenario.pool, batches, paddingSolver(2));
}

TEST(PoolPadding, LineEpochsIgnoreNeverArrivingDemands) {
  const ChurnLineScenario scenario =
      makeDiurnalMetroLine100k(6, kPoolDemands);
  const std::vector<EpochBatch> batches = batchTrace(
      generateChurnTrace(sweepArrivals(ArrivalModel::Poisson, 6),
                         scenario.pool.numDemands()),
      8.0);
  expectPaddingInvariant(scenario.pool, batches, paddingSolver(1));
}

TEST(PoolPadding, DepartureAndReArrivalRebuildTheContext) {
  // A demand that departs and re-arrives in the next epoch has its
  // processor context cleared and rebuilt; the re-arrival epoch must
  // still audit clean and match the padded pool bit for bit.
  const ChurnTreeScenario scenario = makeFlashCrowdTree50k(9, kPoolDemands);
  std::vector<DemandId> firstWave;
  for (DemandId d = 0; d < kPoolDemands; d += 3) firstWave.push_back(d);
  const DemandId bouncer = firstWave[firstWave.size() / 2];
  const DemandId neighbor = firstWave[firstWave.size() / 2 + 1];
  const std::vector<EpochBatch> batches = {
      {firstWave, {}},
      {{1, 4}, {bouncer}},
      {{bouncer}, {1}},
      {{}, {neighbor, bouncer}},
      {{bouncer, neighbor}, {}},
      {{}, {}},
  };
  for (const std::int32_t threads : {1, 2}) {
    expectPaddingInvariant(scenario.pool, batches, paddingSolver(threads));
  }
}

// ---- Incremental communication graph + live transport ----

TEST(IncrementalSolver, LiveGraphMatchesFromScratchEveryEpoch) {
  const ChurnTreeScenario scenario = makeFlashCrowdTree50k(7, 120);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(scenario.pool);
  OnlineSolverConfig solver;
  solver.seed = 99;
  SimNetwork bus(std::vector<std::vector<std::int32_t>>(
      static_cast<std::size_t>(scenario.pool.numDemands())));
  IncrementalSolver engine(dynamic, solver, bus);

  const ChurnTrace trace = generateChurnTrace(
      sweepArrivals(ArrivalModel::Poisson, 7), scenario.pool.numDemands());
  std::vector<std::vector<std::int32_t>> maskedAccess(
      scenario.pool.access.size());
  for (const EpochBatch& batch : batchTrace(trace, 8.0)) {
    engine.applyEpoch(batch.arrivals, batch.departures);
    for (const DemandId d : batch.departures) {
      maskedAccess[static_cast<std::size_t>(d)].clear();
    }
    for (const DemandId d : batch.arrivals) {
      maskedAccess[static_cast<std::size_t>(d)] =
          scenario.pool.access[static_cast<std::size_t>(d)];
    }
    const auto expected =
        communicationGraph(maskedAccess, scenario.pool.numNetworks());
    for (DemandId d = 0; d < scenario.pool.numDemands(); ++d) {
      const auto live = engine.transport().neighbors(d);
      const std::vector<std::int32_t> liveList(live.begin(), live.end());
      ASSERT_EQ(liveList, expected[static_cast<std::size_t>(d)])
          << "demand " << d << " after epoch " << engine.numEpochs();
    }
    // The persistent LHS stays a replay of the surviving raises (bounds
    // the floating-point residue of departure purges).
    EXPECT_LT(engine.maxLhsDeviationFromReplay(), 1e-7);
    // Stack compaction invariant: purged records leave with their sets,
    // so every stored raise is live and every stored set non-empty.
    EXPECT_LE(engine.stackSets(), engine.storedRaises());
  }
}

// ---- Phase-1 stack compaction (ROADMAP follow-up) ----

// Fully-purged tuple sets must be dropped the epoch their last member
// departs — not accumulate until the next full re-solve. Departing every
// active demand therefore leaves a completely empty stack.
TEST(IncrementalSolver, StackCompactionDropsFullyPurgedSets) {
  const ChurnTreeScenario scenario = makeFlashCrowdTree50k(11, 96);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(scenario.pool);
  OnlineSolverConfig solver;
  solver.seed = 41;
  SimNetwork bus(std::vector<std::vector<std::int32_t>>(
      static_cast<std::size_t>(scenario.pool.numDemands())));
  IncrementalSolver engine(dynamic, solver, bus);

  const ChurnTrace trace = generateChurnTrace(
      sweepArrivals(ArrivalModel::Poisson, 11), scenario.pool.numDemands());
  for (const EpochBatch& batch : batchTrace(trace, 8.0)) {
    engine.applyEpoch(batch.arrivals, batch.departures);
    EXPECT_LE(engine.stackSets(), engine.storedRaises());
  }
  ASSERT_GT(engine.activeDemands(), 0);
  ASSERT_GT(engine.storedRaises(), 0);

  // Depart everyone: every raise purges, every set empties, and the
  // eager compaction must leave nothing behind.
  std::vector<DemandId> everyone;
  for (DemandId d = 0; d < scenario.pool.numDemands(); ++d) {
    if (engine.isActive(d)) everyone.push_back(d);
  }
  const EpochOutcome outcome = engine.applyEpoch({}, everyone);
  EXPECT_EQ(engine.activeDemands(), 0);
  EXPECT_EQ(engine.stackSets(), 0);
  EXPECT_EQ(engine.storedRaises(), 0);
  EXPECT_TRUE(outcome.solution.instances.empty());
}

// ---- SLA metrics: admission latency in epochs ----

TEST(IncrementalSolver, AdmissionSlaTracksFirstAdmission) {
  const ChurnTreeScenario scenario = makeFlashCrowdTree50k(13, 64);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(scenario.pool);
  OnlineSolverConfig solver;
  solver.seed = 57;
  SimNetwork bus(std::vector<std::vector<std::int32_t>>(
      static_cast<std::size_t>(scenario.pool.numDemands())));
  IncrementalSolver engine(dynamic, solver, bus);

  std::vector<DemandId> all;
  for (DemandId d = 0; d < scenario.pool.numDemands(); ++d) {
    all.push_back(d);
  }
  const EpochOutcome first = engine.applyEpoch(all, {});

  // Every demand of the first admitted solution was admitted in its
  // arrival epoch: latency 0.
  std::vector<DemandId> admitted;
  for (const InstanceId i : first.solution.instances) {
    admitted.push_back(dynamic.instance(i).demand);
  }
  std::sort(admitted.begin(), admitted.end());
  admitted.erase(std::unique(admitted.begin(), admitted.end()),
                 admitted.end());
  ASSERT_FALSE(admitted.empty());
  EXPECT_EQ(first.newlyAdmittedDemands,
            static_cast<std::int32_t>(admitted.size()));
  AdmissionSla sla = engine.admissionSla();
  EXPECT_EQ(sla.admittedDemands,
            static_cast<std::int64_t>(admitted.size()));
  EXPECT_EQ(sla.departedUnadmitted, 0);
  EXPECT_EQ(sla.meanLatencyEpochs, 0.0);
  EXPECT_EQ(sla.maxLatencyEpochs, 0);
  for (const DemandId d : admitted) {
    EXPECT_EQ(engine.admissionLatencyEpochs(d), 0);
  }

  // Departing everyone counts the never-admitted demands exactly once.
  const auto unadmittedCount =
      static_cast<std::int64_t>(all.size() - admitted.size());
  engine.applyEpoch({}, all);
  sla = engine.admissionSla();
  EXPECT_EQ(sla.departedUnadmitted, unadmittedCount);

  // A re-arrival restarts the clock: re-admitting in its re-arrival
  // epoch keeps max latency at 0 and counts a fresh admission event.
  const EpochOutcome redo = engine.applyEpoch(all, {});
  std::int64_t readmitted = 0;
  for (const InstanceId i : redo.solution.instances) {
    (void)i;
    ++readmitted;
  }
  ASSERT_GT(readmitted, 0);
  sla = engine.admissionSla();
  EXPECT_EQ(sla.admittedDemands,
            static_cast<std::int64_t>(admitted.size()) +
                redo.newlyAdmittedDemands);
  EXPECT_EQ(sla.maxLatencyEpochs, 0);
}

TEST(SimNetworkLiveTopology, ConnectAndDisconnectMaintainSymmetry) {
  SimNetwork bus(std::vector<std::vector<std::int32_t>>(4));
  bus.connectDemand(1, std::vector<std::int32_t>{});
  bus.connectDemand(0, std::vector<std::int32_t>{2, 3});
  EXPECT_EQ(bus.neighbors(2).size(), 1u);
  EXPECT_EQ(bus.neighbors(2)[0], 0);
  EXPECT_EQ(bus.neighbors(3)[0], 0);

  // A connected demand must be disconnected before reconnecting; the
  // neighbour list must be sorted and loop-free.
  EXPECT_THROW(bus.connectDemand(0, std::vector<std::int32_t>{1}),
               CheckError);
  EXPECT_THROW(bus.connectDemand(1, std::vector<std::int32_t>{3, 2}),
               CheckError);
  EXPECT_THROW(bus.connectDemand(1, std::vector<std::int32_t>{1}),
               CheckError);

  bus.disconnectDemand(0);
  EXPECT_TRUE(bus.neighbors(0).empty());
  EXPECT_TRUE(bus.neighbors(2).empty());
  EXPECT_TRUE(bus.neighbors(3).empty());

  // No mutation with staged traffic: the round must end first.
  bus.connectDemand(0, std::vector<std::int32_t>{2});
  bus.broadcast({MessageKind::MisActive, 0, 1, 0.0});
  EXPECT_THROW(bus.disconnectDemand(0), CheckError);
  EXPECT_THROW(bus.connectDemand(3, std::vector<std::int32_t>{1}),
               CheckError);
  bus.endRound();
  EXPECT_EQ(bus.inbox(2).size(), 1u);
  bus.disconnectDemand(0);
}

// ---- Arrival traces ----

TEST(ArrivalTraces, DeterministicWellFormedAndComplete) {
  for (const ArrivalModel model :
       {ArrivalModel::Poisson, ArrivalModel::FlashCrowd,
        ArrivalModel::Diurnal}) {
    const ArrivalConfig config = sweepArrivals(model, 5);
    const ChurnTrace a = generateChurnTrace(config, 150);
    const ChurnTrace b = generateChurnTrace(config, 150);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t e = 0; e < a.events.size(); ++e) {
      EXPECT_EQ(a.events[e].time, b.events[e].time);
      EXPECT_EQ(a.events[e].demand, b.events[e].demand);
      EXPECT_EQ(a.events[e].arrival, b.events[e].arrival);
    }

    std::vector<double> arrivalTime(150, -1.0);
    std::int32_t departures = 0;
    double last = 0;
    for (const ChurnEvent& event : a.events) {
      EXPECT_GE(event.time, last);
      last = event.time;
      EXPECT_GE(event.time, 0.0);
      EXPECT_LT(event.time, config.horizon);
      if (event.arrival) {
        EXPECT_EQ(arrivalTime[static_cast<std::size_t>(event.demand)], -1.0)
            << "one arrival per demand";
        arrivalTime[static_cast<std::size_t>(event.demand)] = event.time;
      } else {
        ++departures;
        EXPECT_GE(event.time,
                  arrivalTime[static_cast<std::size_t>(event.demand)]);
      }
    }
    for (const double t : arrivalTime) {
      EXPECT_GE(t, 0.0) << "every demand arrives";
    }
    EXPECT_GT(departures, 0);
    EXPECT_LT(departures, 150);
  }
}

TEST(ArrivalTraces, FlashCrowdConcentratesArrivalsInTheBurst) {
  ArrivalConfig config = sweepArrivals(ArrivalModel::FlashCrowd, 17);
  config.burstFraction = 0.7;
  const ChurnTrace trace = generateChurnTrace(config, 400);
  const double begin =
      config.horizon * (config.burstCenter - 0.5 * config.burstWidth);
  const double end =
      config.horizon * (config.burstCenter + 0.5 * config.burstWidth);
  std::int32_t inBurst = 0;
  for (const ChurnEvent& event : trace.events) {
    if (event.arrival && event.time >= begin && event.time <= end) {
      ++inBurst;
    }
  }
  // ~70% burst members plus the uniform stragglers that happen to land
  // inside the window; well above half in any case.
  EXPECT_GT(inBurst, 200);
}

TEST(ArrivalTraces, DiurnalWaveModulatesArrivalIntensity) {
  ArrivalConfig config = sweepArrivals(ArrivalModel::Diurnal, 23);
  config.waves = 2.0;
  config.waveDepth = 0.9;
  const ChurnTrace trace = generateChurnTrace(config, 600);
  // sin(2 pi * 2 * t / H) is positive on (0, H/4) and (H/2, 3H/4): the
  // two daytime peaks must collect clearly more arrivals than the two
  // troughs.
  std::int32_t peak = 0;
  std::int32_t trough = 0;
  for (const ChurnEvent& event : trace.events) {
    if (!event.arrival) continue;
    const double phase = event.time / config.horizon;
    const bool inPeak =
        (phase < 0.25) || (phase >= 0.5 && phase < 0.75);
    (inPeak ? peak : trough) += 1;
  }
  EXPECT_GT(peak, 2 * trough);
}

TEST(ArrivalTraces, ValidatesConfig) {
  ArrivalConfig config;
  config.horizon = 0;
  EXPECT_THROW(generateChurnTrace(config, 4), CheckError);
  config = {};
  config.meanLifetime = -1;
  EXPECT_THROW(generateChurnTrace(config, 4), CheckError);
  config = {};
  config.burstFraction = 1.5;
  EXPECT_THROW(generateChurnTrace(config, 4), CheckError);
  config = {};
  config.waveDepth = 1.0;
  EXPECT_THROW(generateChurnTrace(config, 4), CheckError);
}

TEST(EpochBatcher, NetsIntraWindowPairsAndPreservesOrder) {
  ChurnTrace trace;
  trace.horizon = 30.0;
  // Demand 2 arrives and departs inside window [0, 10): never admitted.
  trace.events = {
      {1.0, 2, true},  {2.0, 0, true},   {6.5, 2, false},
      {12.0, 1, true}, {14.0, 0, false}, {25.0, 1, false},
  };
  const std::vector<EpochBatch> batches = batchTrace(trace, 10.0);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].arrivals, (std::vector<DemandId>{0}));
  EXPECT_TRUE(batches[0].departures.empty());
  EXPECT_EQ(batches[1].arrivals, (std::vector<DemandId>{1}));
  EXPECT_EQ(batches[1].departures, (std::vector<DemandId>{0}));
  EXPECT_TRUE(batches[2].arrivals.empty());
  EXPECT_EQ(batches[2].departures, (std::vector<DemandId>{1}));
}

}  // namespace
}  // namespace treesched
