// Parallel-engine bit-equivalence sweep (acceptance gate of the engine/
// subsystem), extending the equivalence chain of dist_equivalence_test
// and async_equivalence_test: parallel ≡ serial ≡ async ≡ sync
// (≡ centralized, by the existing gates).
//
// For every seed x {line, tree} x thread count in {1, 2, 8} the protocol
// must select the same instances and report identical profit, duals,
// lambda and round/message accounting as the 1-thread (serial) engine —
// exact comparisons on purpose: shard merges are by shard id and every
// floating-point accumulation is per-owner, so parallelism must never
// perturb a single bit. Also the MessagePlane canonical-order unit suite
// and ParallelRunner coverage/barrier units.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "dist/protocol.hpp"
#include "engine/message_plane.hpp"
#include "engine/parallel_runner.hpp"
#include "gen/scenario.hpp"
#include "net/runner.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {
namespace {

constexpr std::uint64_t kSeeds[] = {3, 14, 25, 36, 47};
constexpr std::int32_t kThreadCounts[] = {1, 2, 8};

TreeProblem sweepTree(std::uint64_t seed) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 16 + static_cast<std::int32_t>(seed % 11);
  cfg.numNetworks = 2 + static_cast<std::int32_t>(seed % 3);
  cfg.demands.numDemands = 14 + static_cast<std::int32_t>(seed % 9);
  cfg.demands.accessProbability = 0.6;
  cfg.demands.profitMax = 8.0;
  return makeTreeScenario(cfg);
}

LineProblem sweepLine(std::uint64_t seed) {
  LineScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numSlots = 28 + static_cast<std::int32_t>(seed % 21);
  cfg.numResources = 2 + static_cast<std::int32_t>(seed % 2);
  cfg.demands.numDemands = 12 + static_cast<std::int32_t>(seed % 8);
  cfg.demands.windowSlack = 0.4;
  cfg.demands.processingMax = 5;
  cfg.demands.accessProbability = 0.7;
  return makeLineScenario(cfg);
}

DistributedOptions sweepOptions(std::uint64_t seed, std::int32_t threads) {
  DistributedOptions opt;
  opt.seed = seed * 17 + 3;
  opt.misRoundBudget = 6;
  opt.stepsPerStage = 5;
  opt.threads = threads;
  return opt;
}

void expectBitIdentical(const DistributedResult& parallel,
                        const DistributedResult& serial) {
  EXPECT_EQ(parallel.solution.instances, serial.solution.instances)
      << "thread count must never change the selected instances";
  EXPECT_EQ(parallel.profit, serial.profit);
  EXPECT_EQ(parallel.dualObjective, serial.dualObjective);
  EXPECT_EQ(parallel.dualUpperBound, serial.dualUpperBound);
  EXPECT_EQ(parallel.lambdaMeasured, serial.lambdaMeasured);
  EXPECT_EQ(parallel.raises, serial.raises);
  EXPECT_EQ(parallel.activeSteps, serial.activeSteps);
  EXPECT_EQ(parallel.network.rounds, serial.network.rounds);
  EXPECT_EQ(parallel.network.busyRounds, serial.network.busyRounds);
  EXPECT_EQ(parallel.network.messages, serial.network.messages);
  EXPECT_EQ(parallel.network.payload, serial.network.payload);
  EXPECT_TRUE(parallel.localViewsConsistent);
}

class ParallelEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalenceSweep, TreeBitIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  const DistributedResult serial =
      runDistributedUnitTree(problem, sweepOptions(seed, 1));
  for (const std::int32_t threads : kThreadCounts) {
    const DistributedResult parallel =
        runDistributedUnitTree(problem, sweepOptions(seed, threads));
    expectBitIdentical(parallel, serial);
  }
}

TEST_P(ParallelEquivalenceSweep, LineBitIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  const LineProblem problem = sweepLine(seed);
  const DistributedResult serial =
      runDistributedUnitLine(problem, sweepOptions(seed, 1));
  for (const std::int32_t threads : kThreadCounts) {
    const DistributedResult parallel =
        runDistributedUnitLine(problem, sweepOptions(seed, threads));
    expectBitIdentical(parallel, serial);
  }
}

// Crash-stop faults interact with the active sets (dead instances leave
// them for good); the parallel engine must reproduce the serial fault
// semantics exactly.
TEST_P(ParallelEquivalenceSweep, TreeCrashFaultsBitIdentical) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  DistributedOptions serialOpt = sweepOptions(seed, 1);
  serialOpt.crashProcessors = {0, 3, 5};
  serialOpt.crashAtTuple = 7;
  const DistributedResult serial =
      runDistributedUnitTree(problem, serialOpt);
  EXPECT_EQ(serial.crashedProcessors, 3);
  for (const std::int32_t threads : kThreadCounts) {
    DistributedOptions opt = serialOpt;
    opt.threads = threads;
    const DistributedResult parallel = runDistributedUnitTree(problem, opt);
    expectBitIdentical(parallel, serial);
    EXPECT_EQ(parallel.crashedProcessors, serial.crashedProcessors);
  }
}

// The full chain in one place: the parallel engine over the lossy async
// transport must equal the serial engine over the synchronous bus.
TEST_P(ParallelEquivalenceSweep, ParallelOverAsyncEqualsSerialOverSync) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  const DistributedResult serial =
      runDistributedUnitTree(problem, sweepOptions(seed, 1));

  AsyncConfig net;
  net.seed = seed + 9;
  net.link.latency.model = LatencyModel::Uniform;
  net.link.latency.base = 1.0;
  net.link.latency.spread = 2.0;
  net.link.dropProbability = 0.1;
  net.link.retransmitTimeout = 4.0;
  const DistributedResult parallelAsync =
      runAsyncUnitTree(problem, sweepOptions(seed, 8), net);
  expectBitIdentical(parallelAsync, serial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalenceSweep,
                         ::testing::ValuesIn(kSeeds),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

// The scale presets stay deterministic and well-formed at test scale.
TEST(ParallelPresets, ScaledPresetsAreDeterministicAndRunnable) {
  const LineProblem line1 = makeMetroLine100k(5, 600);
  const LineProblem line2 = makeMetroLine100k(5, 600);
  EXPECT_EQ(line1.demands.size(), 600u);
  ASSERT_EQ(line1.access.size(), line2.access.size());
  EXPECT_EQ(line1.access, line2.access);
  for (const auto& access : line1.access) {
    EXPECT_GE(access.size(), 1u);
    EXPECT_LE(access.size(), 2u);
  }

  const TreeProblem tree = makeCdnTree250k(5, 400);
  EXPECT_EQ(tree.demands.size(), 400u);

  const DistributedResult serial =
      runDistributedUnitLine(line1, sweepOptions(1, 1));
  const DistributedResult parallel =
      runDistributedUnitLine(line1, sweepOptions(1, 8));
  expectBitIdentical(parallel, serial);
}

// ---- MessagePlane canonical-order unit suite ----

Message msg(MessageKind kind, DemandId from, InstanceId instance,
            double value = 0.0) {
  return {kind, from, instance, value};
}

TEST(MessagePlane, DeliversInCanonicalOrderPerDestination) {
  MessagePlane plane(4);
  // Staged deliberately out of canonical order, across two destinations.
  plane.stage(2, msg(MessageKind::MisActive, 3, 9));
  plane.stage(0, msg(MessageKind::MisJoin, 1, 4));
  plane.stage(2, msg(MessageKind::MisActive, 1, 7));
  plane.stage(2, msg(MessageKind::DualRaise, 1, 5, 0.5));
  plane.stage(0, msg(MessageKind::MisActive, 0, 2));
  EXPECT_TRUE(plane.hasStaged());
  EXPECT_EQ(plane.stagedCount(), 5);
  plane.deliver();

  const auto inbox2 = plane.inbox(2);
  ASSERT_EQ(inbox2.size(), 3u);
  EXPECT_EQ(inbox2[0].from, 1);
  EXPECT_EQ(inbox2[0].instance, 5);  // (1,5) < (1,7) < (3,9)
  EXPECT_EQ(inbox2[1].instance, 7);
  EXPECT_EQ(inbox2[2].from, 3);
  for (std::size_t i = 1; i < inbox2.size(); ++i) {
    EXPECT_FALSE(canonicalMessageLess(inbox2[i], inbox2[i - 1]));
  }

  const auto inbox0 = plane.inbox(0);
  ASSERT_EQ(inbox0.size(), 2u);
  EXPECT_EQ(inbox0[0].from, 0);
  EXPECT_EQ(inbox0[1].from, 1);

  EXPECT_TRUE(plane.inbox(1).empty());
  EXPECT_TRUE(plane.inbox(3).empty());

  const auto active = plane.activeDests();
  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(active[0], 0);
  EXPECT_EQ(active[1], 2);
}

TEST(MessagePlane, RoundBoundaryReplacesInboxes) {
  MessagePlane plane(3);
  plane.stage(1, msg(MessageKind::MisActive, 0, 1));
  plane.deliver();
  EXPECT_EQ(plane.inbox(1).size(), 1u);
  plane.deliver();  // empty round
  EXPECT_TRUE(plane.inbox(1).empty());
  EXPECT_TRUE(plane.activeDests().empty());
  EXPECT_EQ(plane.rounds(), 2);
}

TEST(MessagePlane, ClearInboxesDropsDeliveriesButNotStaged) {
  MessagePlane plane(2);
  plane.stage(1, msg(MessageKind::MisActive, 0, 1));
  plane.deliver();
  plane.clearInboxes();
  EXPECT_TRUE(plane.inbox(1).empty());
  EXPECT_TRUE(plane.activeDests().empty());
  plane.stage(0, msg(MessageKind::MisActive, 1, 2));
  EXPECT_THROW(plane.clearInboxes(), CheckError);
}

TEST(MessagePlane, SteadyStateIsAllocationFree) {
  MessagePlane plane(8);
  Rng rng(11);
  const auto playRound = [&] {
    for (int m = 0; m < 100; ++m) {
      plane.stage(static_cast<std::int32_t>(rng.nextBounded(8)),
                  msg(MessageKind::MisActive,
                      static_cast<DemandId>(rng.nextBounded(8)),
                      static_cast<InstanceId>(rng.nextBounded(40))));
    }
    plane.deliver();
  };
  playRound();  // warmup grows the buffers...
  playRound();
  const std::int64_t warmupGrowths = plane.growthEvents();
  EXPECT_GT(warmupGrowths, 0);
  for (int r = 0; r < 50; ++r) {
    playRound();  // ...steady state never does
  }
  EXPECT_EQ(plane.growthEvents(), warmupGrowths);
  EXPECT_LE(plane.lastGrowthRound(), 1);
  EXPECT_EQ(plane.rounds(), 52);
}

TEST(MessagePlane, ParallelSegmentSortMatchesSerial) {
  ParallelRunner runner(4);
  MessagePlane parallel(16);
  MessagePlane serial(16);
  parallel.attachRunner(&runner);
  Rng rng(7);
  for (int m = 0; m < 600; ++m) {
    const auto dest = static_cast<std::int32_t>(rng.nextBounded(16));
    const Message message =
        msg(m % 3 == 0 ? MessageKind::DualRaise : MessageKind::MisActive,
            static_cast<DemandId>(rng.nextBounded(16)),
            static_cast<InstanceId>(rng.nextBounded(64)), rng.nextDouble());
    parallel.stage(dest, message);
    serial.stage(dest, message);
  }
  parallel.deliver();
  serial.deliver();
  for (std::int32_t p = 0; p < 16; ++p) {
    const auto a = parallel.inbox(p);
    const auto b = serial.inbox(p);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_FALSE(canonicalMessageLess(a[i], b[i]));
      EXPECT_FALSE(canonicalMessageLess(b[i], a[i]));
    }
  }
}

TEST(MessagePlane, ParallelFanoutMatchesSerialStaging) {
  // The deferred broadcast fan-out (stageFanout) must deliver exactly
  // what a serial stage() loop over the sender's clique-expanded
  // neighbours delivers — at any thread count, mixed with direct stage()
  // rows in the same round, and for pairs sharing several networks.
  ParallelRunner runner(4);
  MessagePlane parallel(12);
  MessagePlane serial(12);
  parallel.attachRunner(&runner);
  Rng rng(13);
  std::vector<std::vector<std::int32_t>> access(12);
  for (auto& list : access) {
    for (std::int32_t t = 0; t < 5; ++t) {
      if (rng.nextBool(0.3)) list.push_back(t);
    }
  }
  const CommunicationGraph graph = communicationGraph(access, 5);
  std::vector<std::vector<std::int32_t>> destLists(12);
  for (std::size_t a = 0; a < access.size(); ++a) {
    for (std::size_t b = 0; b < access.size(); ++b) {
      const bool shares = std::any_of(
          access[a].begin(), access[a].end(), [&](std::int32_t t) {
            return std::find(access[b].begin(), access[b].end(), t) !=
                   access[b].end();
          });
      if (a != b && shares) {
        destLists[a].push_back(static_cast<std::int32_t>(b));
      }
    }
  }
  for (int round = 0; round < 3; ++round) {
    for (std::size_t f = 0; f < 40; ++f) {
      const Message message =
          msg(f % 2 == 0 ? MessageKind::MisActive : MessageKind::DualRaise,
              static_cast<DemandId>(f % 12),
              static_cast<InstanceId>(rng.nextBounded(64)),
              rng.nextDouble());
      parallel.stageFanout(message, graph);
      for (const std::int32_t d : destLists[f % 12]) {
        serial.stage(d, message);
      }
      if (f % 7 == 0) {  // direct rows interleaved with fan-outs
        const Message direct = msg(MessageKind::Accept, 3, 5);
        parallel.stage(4, direct);
        serial.stage(4, direct);
      }
    }
    EXPECT_EQ(parallel.stagedCount(), serial.stagedCount());
    EXPECT_TRUE(parallel.hasStaged());
    parallel.deliver();
    serial.deliver();
    ASSERT_EQ(parallel.deliveredCount(), serial.deliveredCount());
    for (std::int32_t p = 0; p < 12; ++p) {
      const auto a = parallel.inbox(p);
      const auto b = serial.inbox(p);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].from, b[i].from);
        EXPECT_EQ(a[i].instance, b[i].instance);
        EXPECT_EQ(a[i].value, b[i].value);
      }
    }
  }
  // Queued fan-outs guard the silent-round contract like staged rows.
  parallel.stageFanout(msg(MessageKind::MisActive, 0, 1), graph);
  if (!destLists[0].empty()) {
    EXPECT_THROW(parallel.clearInboxes(), CheckError);
    parallel.deliver();
  }
}

// ---- ParallelRunner units ----

TEST(ParallelRunner, PlanCoversRangeExactlyOnce) {
  ParallelRunner runner(3);
  for (const std::int64_t count : {0, 1, 15, 16, 17, 1000, 4097}) {
    const ParallelRunner::ShardPlan plan = runner.plan(count);
    std::int64_t covered = 0;
    for (std::int32_t s = 0; s < plan.numShards; ++s) {
      EXPECT_EQ(plan.begin(s), covered);
      EXPECT_LE(plan.end(s), count);
      covered = plan.end(s);
    }
    EXPECT_EQ(covered, count);
  }
}

TEST(ParallelRunner, WeightedPlanCoversRangeExactlyOnce) {
  ParallelRunner runner(4);
  // Heavily skewed weights: one hot item dominates, plus zero/negative
  // weights (clamped to 1) and a long uniform tail.
  std::vector<std::int64_t> weights;
  for (std::int64_t i = 0; i < 1000; ++i) {
    weights.push_back(i == 17 ? 50'000 : (i % 7 == 0 ? 0 : 3));
  }
  ParallelRunner::ShardPlan plan;
  runner.planWeighted(weights, plan);
  ASSERT_GT(plan.numShards, 1);
  std::int64_t covered = 0;
  for (std::int32_t s = 0; s < plan.numShards; ++s) {
    EXPECT_EQ(plan.begin(s), covered);
    EXPECT_GT(plan.end(s), plan.begin(s)) << "no empty shards";
    covered = plan.end(s);
  }
  EXPECT_EQ(covered, static_cast<std::int64_t>(weights.size()));

  // Deterministic: same weights, same bounds (plan reuse grows nothing).
  ParallelRunner::ShardPlan replay;
  runner.planWeighted(weights, replay);
  EXPECT_EQ(replay.bounds, plan.bounds);

  // The dominating item is isolated away from the uniform tail: the
  // shard holding item 17 stays narrow while total shards track the
  // target parallelism.
  for (std::int32_t s = 0; s < plan.numShards; ++s) {
    if (plan.begin(s) <= 17 && 17 < plan.end(s)) {
      EXPECT_LE(plan.end(s) - plan.begin(s), 64)
          << "hot item must not drag a wide shard behind it";
    }
  }

  // Empty input: zero shards, nothing runs.
  runner.planWeighted(std::span<const std::int64_t>{}, plan);
  EXPECT_EQ(plan.numShards, 0);
  std::atomic<std::int32_t> ran{0};
  runner.forShards(plan, [&](std::int32_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelRunner, WeightedForShardsRunsEveryItemExactlyOnce) {
  ParallelRunner runner(8);
  std::vector<std::int64_t> weights(3000);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<std::int64_t>((i * 2654435761u) % 97);
  }
  ParallelRunner::ShardPlan plan;
  runner.planWeighted(weights, plan);
  ASSERT_GT(plan.numShards, 1);
  std::vector<std::atomic<std::int32_t>> hits(weights.size());
  for (int repeat = 0; repeat < 10; ++repeat) {
    for (auto& h : hits) h.store(0);
    runner.forShards(plan, [&](std::int32_t shard) {
      for (std::int64_t i = plan.begin(shard); i < plan.end(shard); ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
  // The steal/claim tallies stay coherent: every shard was claimed by
  // someone, and steals never exceed claims.
  EXPECT_GT(runner.claims(), 0);
  EXPECT_LE(runner.steals(), runner.claims());
}

TEST(ParallelRunner, ForShardsRunsEveryShardExactlyOnce) {
  ParallelRunner runner(8);
  const ParallelRunner::ShardPlan plan = runner.plan(5000);
  ASSERT_GT(plan.numShards, 1);
  std::vector<std::atomic<std::int32_t>> hits(
      static_cast<std::size_t>(plan.numShards));
  for (int repeat = 0; repeat < 20; ++repeat) {
    for (auto& h : hits) h.store(0);
    runner.forShards(plan, [&](std::int32_t shard) {
      hits[static_cast<std::size_t>(shard)].fetch_add(1);
    });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ParallelRunner, PropagatesShardExceptions) {
  ParallelRunner runner(4);
  const ParallelRunner::ShardPlan plan = runner.plan(640);
  EXPECT_THROW(runner.forShards(plan,
                                [&](std::int32_t shard) {
                                  if (shard == plan.numShards - 1) {
                                    throw CheckError("shard failure");
                                  }
                                }),
               CheckError);
  // The pool survives and runs the next section normally.
  std::atomic<std::int32_t> ran{0};
  runner.forShards(plan, [&](std::int32_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), plan.numShards);
}

}  // namespace
}  // namespace treesched
