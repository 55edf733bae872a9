#include <gtest/gtest.h>

#include <algorithm>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "dist/sim_network.hpp"
#include "engine/parallel_runner.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "test_fixtures.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {
namespace {

TreeProblem treeCase(std::uint64_t seed, std::int32_t n, std::int32_t m,
                     std::int32_t r, double accessProb = 0.7) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = n;
  cfg.numNetworks = r;
  cfg.demands.numDemands = m;
  cfg.demands.accessProbability = accessProb;
  cfg.demands.profitMax = 8.0;
  return makeTreeScenario(cfg);
}

// ---- SimNetwork ----

TEST(SimNetwork, DeliversToNeighborsNextRound) {
  // p0-p1 over network 0, p1-p2 over network 1.
  SimNetwork net(communicationGraph({{0}, {0, 1}, {1}}, 2));
  net.broadcast({MessageKind::MisActive, 1, 42, 0.0});
  net.endRound();
  EXPECT_EQ(net.inbox(0).size(), 1u);
  EXPECT_EQ(net.inbox(2).size(), 1u);
  EXPECT_TRUE(net.inbox(1).empty());
  EXPECT_EQ(net.inbox(0)[0].instance, 42);
  EXPECT_EQ(net.stats().rounds, 1);
  EXPECT_EQ(net.stats().messages, 2);
}

TEST(SimNetwork, InboxClearedEachRound) {
  SimNetwork net(communicationGraph({{0}, {0}}, 1));
  net.broadcast({MessageKind::MisActive, 0, 1, 0.0});
  net.endRound();
  EXPECT_EQ(net.inbox(1).size(), 1u);
  net.endRound();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(SimNetwork, SenderNeverHearsItself) {
  // Alone on its network, and sharing two networks with p1: p0 reaches
  // nobody in the first case and p1 exactly once in the second.
  SimNetwork alone(communicationGraph({{0}}, 1));
  alone.broadcast({MessageKind::MisActive, 0, 1, 0.0});
  alone.endRound();
  EXPECT_TRUE(alone.inbox(0).empty());
  EXPECT_EQ(alone.stats().messages, 0);

  SimNetwork pair(communicationGraph({{0, 1}, {0, 1}}, 2));
  pair.broadcast({MessageKind::MisActive, 0, 1, 0.0});
  pair.endRound();
  EXPECT_TRUE(pair.inbox(0).empty());
  EXPECT_EQ(pair.inbox(1).size(), 1u);
  EXPECT_EQ(pair.stats().messages, 1);
}

TEST(SimNetwork, SilentRoundsCount) {
  SimNetwork net(communicationGraph({{0}, {0}}, 1));
  net.endSilentRounds(5);
  EXPECT_EQ(net.stats().rounds, 5);
  EXPECT_EQ(net.stats().busyRounds, 0);
}

TEST(SimNetwork, InboxSortedCanonically) {
  // p2 shares network 0 with p0 and network 1 with p1.
  SimNetwork net(communicationGraph({{0}, {1}, {0, 1}}, 2));
  net.broadcast({MessageKind::MisActive, 1, 9, 0.0});
  net.broadcast({MessageKind::MisActive, 0, 3, 0.0});
  net.endRound();
  const auto inbox = net.inbox(2);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].instance, 3);
  EXPECT_EQ(inbox[1].instance, 9);
}

// ---- Communication graph ----

using Neighbors = std::vector<std::int32_t>;
using testing::sortedNeighbors;

TEST(CommunicationGraph, SharedResourceMeansEdge) {
  // p0 on {0}, p1 on {0,1}, p2 on {1}: p0-p1 and p1-p2, not p0-p2.
  const auto graph = communicationGraph({{0}, {0, 1}, {1}}, 2);
  EXPECT_EQ(sortedNeighbors(graph, 0), (Neighbors{1}));
  EXPECT_EQ(sortedNeighbors(graph, 1), (Neighbors{0, 2}));
  EXPECT_EQ(sortedNeighbors(graph, 2), (Neighbors{1}));
}

TEST(CommunicationGraph, NoDuplicateEdges) {
  // Sharing two resources still yields one neighbour entry.
  const auto graph = communicationGraph({{0, 1}, {0, 1}}, 2);
  EXPECT_EQ(sortedNeighbors(graph, 0), (Neighbors{1}));
  EXPECT_EQ(graph.degree(0), 1);
}

TEST(CommunicationGraph, EmptyAccessListIsIsolated) {
  // A demand accessing nothing shares no network: isolated vertex, and
  // it must not perturb anyone else's neighbours.
  const auto graph = communicationGraph({{0}, {}, {0}}, 1);
  EXPECT_EQ(sortedNeighbors(graph, 0), (Neighbors{2}));
  EXPECT_TRUE(sortedNeighbors(graph, 1).empty());
  EXPECT_EQ(graph.degree(1), 0);
  EXPECT_EQ(sortedNeighbors(graph, 2), (Neighbors{0}));
}

TEST(CommunicationGraph, AllDemandsIsolatedYieldsEmptyGraph) {
  const auto graph = communicationGraph({{}, {}}, 3);
  EXPECT_TRUE(sortedNeighbors(graph, 0).empty());
  EXPECT_TRUE(sortedNeighbors(graph, 1).empty());
}

TEST(CommunicationGraph, DemandAccessingEveryNetworkNeighborsAll) {
  // p1 touches every network, so it is adjacent to every other demand —
  // exactly once each, with no self loop.
  const auto graph = communicationGraph({{0}, {0, 1, 2}, {1}, {2}}, 3);
  EXPECT_EQ(sortedNeighbors(graph, 1), (Neighbors{0, 2, 3}));
  EXPECT_EQ(sortedNeighbors(graph, 0), (Neighbors{1}));
  EXPECT_EQ(sortedNeighbors(graph, 2), (Neighbors{1}));
  EXPECT_EQ(sortedNeighbors(graph, 3), (Neighbors{1}));
}

TEST(CommunicationGraph, DuplicateNetworkIdsCollapse) {
  // Repeated ids in an access list must not duplicate edges or create
  // self loops.
  const auto graph = communicationGraph({{0, 0, 0}, {0, 0}}, 1);
  EXPECT_EQ(sortedNeighbors(graph, 0), (Neighbors{1}));
  EXPECT_EQ(sortedNeighbors(graph, 1), (Neighbors{0}));
  EXPECT_EQ(graph.networksOf(0).size(), 1u);
  EXPECT_EQ(graph.members(0).size(), 2u);
}

TEST(CommunicationGraph, RejectsOutOfRangeNetworkId) {
  EXPECT_THROW(communicationGraph({{2}}, 2), CheckError);
  EXPECT_THROW(communicationGraph({{-1}}, 2), CheckError);
}

/// Neighbours by clique expansion of the live access lists: d and m are
/// adjacent iff both are live, m != d, and their lists intersect.
Neighbors cliqueNeighbors(const std::vector<std::vector<std::int32_t>>& access,
                          const std::vector<bool>& live, std::int32_t d) {
  Neighbors out;
  if (!live[static_cast<std::size_t>(d)]) return out;
  const auto& mine = access[static_cast<std::size_t>(d)];
  for (std::int32_t m = 0; m < static_cast<std::int32_t>(access.size());
       ++m) {
    if (m == d || !live[static_cast<std::size_t>(m)]) continue;
    const auto& theirs = access[static_cast<std::size_t>(m)];
    const bool shares = std::any_of(mine.begin(), mine.end(), [&](auto t) {
      return std::find(theirs.begin(), theirs.end(), t) != theirs.end();
    });
    if (shares) out.push_back(m);
  }
  return out;
}

/// Every demand broadcasts once over `graph`; each must reach each of
/// its neighbours exactly once, at 1 and 8 threads alike.
void expectOneMessagePerNeighbor(const CommunicationGraph& graph) {
  for (const std::int32_t threads : {1, 8}) {
    ParallelRunner runner(threads);
    SimNetwork net(graph);
    net.attachRunner(&runner);
    std::int64_t edges = 0;
    for (std::int32_t d = 0; d < graph.numDemands(); ++d) {
      net.broadcast({MessageKind::MisActive, d, d, 0.0});
      edges += graph.degree(d);
    }
    net.endRound();
    EXPECT_EQ(net.stats().messages, edges) << threads << " threads";
    for (std::int32_t d = 0; d < graph.numDemands(); ++d) {
      Neighbors senders;
      for (const Message& m : net.inbox(d)) senders.push_back(m.from);
      EXPECT_EQ(senders, sortedNeighbors(graph, d))
          << "demand " << d << ", " << threads << " threads";
    }
    net.attachRunner(nullptr);
  }
}

TEST(CommunicationGraph, LiveGraphMatchesCliqueExpansion) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const auto networks = static_cast<std::int32_t>(1 + rng.nextBounded(8));
    const auto demands = static_cast<std::int32_t>(1 + rng.nextBounded(12));
    // Empty, overlapping and repeated ids all occur.
    std::vector<std::vector<std::int32_t>> access(
        static_cast<std::size_t>(demands));
    for (auto& list : access) {
      const auto length = rng.nextBounded(5);
      for (std::uint64_t k = 0; k < length; ++k) {
        list.push_back(static_cast<std::int32_t>(rng.nextBounded(
            static_cast<std::uint64_t>(networks))));
      }
    }
    CommunicationGraph graph(access, networks);
    std::vector<bool> live(static_cast<std::size_t>(demands), false);
    for (int step = 0; step < 30; ++step) {
      const auto d = static_cast<std::int32_t>(
          rng.nextBounded(static_cast<std::uint64_t>(demands)));
      if (rng.nextBool(0.6)) {
        if (live[static_cast<std::size_t>(d)]) {
          EXPECT_THROW(graph.connect(d), CheckError);
        } else {
          graph.connect(d);
          live[static_cast<std::size_t>(d)] = true;
        }
      } else {
        graph.disconnect(d);  // a no-op when d is not connected
        live[static_cast<std::size_t>(d)] = false;
      }
      for (std::int32_t v = 0; v < demands; ++v) {
        const Neighbors expected = cliqueNeighbors(access, live, v);
        ASSERT_EQ(sortedNeighbors(graph, v), expected)
            << "trial " << trial << ", step " << step << ", demand " << v;
        ASSERT_EQ(graph.degree(v), static_cast<std::int32_t>(expected.size()));
        ASSERT_EQ(graph.connected(v), live[static_cast<std::size_t>(v)]);
      }
      if (step % 10 == 9) expectOneMessagePerNeighbor(graph);
    }
  }
}

// ---- Protocol: equivalence with the centralized engine (E11) ----

struct EquivCase {
  std::uint64_t seed;
  std::int32_t n;
  std::int32_t m;
  std::int32_t r;
};

class DistEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(DistEquivalenceTest, BitIdenticalToCentralizedFixedSchedule) {
  const auto& param = GetParam();
  const TreeProblem problem = treeCase(param.seed, param.n, param.m, param.r);

  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  universe.buildConflicts();
  const TreeLayeringResult layering = buildTreeLayering(problem, universe);

  DistributedOptions dopt;
  dopt.seed = 99 + param.seed;
  dopt.misRoundBudget = 40;
  dopt.stepsPerStage = 12;
  const DistributedResult dist = runDistributedUnitTree(problem, dopt);

  FrameworkConfig copt;
  copt.seed = dopt.seed;
  copt.misRoundBudget = dopt.misRoundBudget;
  copt.fixedSchedule = true;
  copt.stepsPerStage = dopt.stepsPerStage;
  const TwoPhaseResult central = runTwoPhase(universe, layering.layering, copt);

  // The distributed result is collected sorted; acceptance order differs.
  std::vector<InstanceId> centralSorted = central.solution.instances;
  std::sort(centralSorted.begin(), centralSorted.end());
  EXPECT_EQ(dist.solution.instances, centralSorted)
      << "distributed and centralized runs must select identical instances";
  EXPECT_DOUBLE_EQ(dist.profit, central.profit);
  EXPECT_DOUBLE_EQ(dist.dualObjective, central.dualObjective);
  EXPECT_DOUBLE_EQ(dist.lambdaMeasured, central.stats.lambdaMeasured);
  EXPECT_TRUE(dist.localViewsConsistent)
      << "every processor's local dual view must agree with ground truth";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistEquivalenceTest,
    ::testing::Values(EquivCase{1, 16, 12, 2}, EquivCase{2, 24, 20, 3},
                      EquivCase{3, 12, 8, 1}, EquivCase{4, 32, 25, 2},
                      EquivCase{5, 20, 30, 4}),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      return "s" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m) + "_r" +
             std::to_string(info.param.r);
    });

TEST(DistProtocol, LineEquivalence) {
  LineScenarioConfig cfg;
  cfg.seed = 7;
  cfg.numSlots = 32;
  cfg.numResources = 2;
  cfg.demands.numDemands = 15;
  cfg.demands.windowSlack = 0.5;
  cfg.demands.processingMax = 6;
  cfg.demands.accessProbability = 0.8;
  const LineProblem problem = makeLineScenario(cfg);

  InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  universe.buildConflicts();
  const Layering layering = buildLineLayering(universe);

  DistributedOptions dopt;
  dopt.seed = 5;
  dopt.misRoundBudget = 40;
  dopt.stepsPerStage = 12;
  const DistributedResult dist = runDistributedUnitLine(problem, dopt);

  FrameworkConfig copt;
  copt.seed = 5;
  copt.misRoundBudget = 40;
  copt.fixedSchedule = true;
  copt.stepsPerStage = 12;
  const TwoPhaseResult central = runTwoPhase(universe, layering, copt);

  std::vector<InstanceId> centralSorted = central.solution.instances;
  std::sort(centralSorted.begin(), centralSorted.end());
  EXPECT_EQ(dist.solution.instances, centralSorted);
  EXPECT_DOUBLE_EQ(dist.profit, central.profit);
  EXPECT_TRUE(dist.localViewsConsistent);
}

// ---- Protocol: guarantees on its own ----

TEST(DistProtocol, SolutionFeasibleAndLambdaReached) {
  const TreeProblem problem = treeCase(11, 24, 20, 2);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  universe.buildConflicts();
  DistributedOptions opt;
  opt.epsilon = 0.2;
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  requireFeasible(universe, result.solution);
  EXPECT_GE(result.lambdaMeasured, result.lambdaTarget - 1e-9)
      << "the fixed schedule must still reach (1-eps)-satisfaction";
  EXPECT_GE(result.dualUpperBound, result.profit - 1e-9);
}

TEST(DistProtocol, MessageSizeIsConstantInM) {
  const TreeProblem problem = treeCase(12, 24, 25, 3);
  const DistributedResult result = runDistributedUnitTree(problem);
  // O(M) message size: every message is at most 2 units (DualRaise).
  EXPECT_LE(result.network.maxMessagePayload, 2);
  EXPECT_GT(result.network.messages, 0);
}

TEST(DistProtocol, RoundsMatchScheduleShape) {
  const TreeProblem problem = treeCase(13, 16, 12, 2);
  DistributedOptions opt;
  opt.misRoundBudget = 10;
  opt.stepsPerStage = 6;
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  // Phase 1 contributes scheduledSteps * (2B + 1); phase 2 one round per
  // tuple.
  const std::int64_t expected =
      result.scheduledSteps * (2 * 10 + 1) + result.scheduledSteps;
  EXPECT_EQ(result.network.rounds, expected);
  EXPECT_LE(result.network.busyRounds, result.network.rounds);
  EXPECT_GT(result.activeSteps, 0);
  EXPECT_LE(result.activeSteps, result.scheduledSteps);
}

TEST(DistProtocol, DisconnectedProcessorsStillScheduled) {
  // Two demands on disjoint resources: no communication possible, but both
  // can be scheduled independently.
  TreeProblem problem;
  problem.numVertices = 4;
  problem.networks.push_back(makePathTree(0, 4));
  problem.networks.push_back(makePathTree(1, 4));
  Demand d0;
  d0.id = 0;
  d0.u = 0;
  d0.v = 2;
  Demand d1;
  d1.id = 1;
  d1.u = 1;
  d1.v = 3;
  problem.demands = {d0, d1};
  problem.access = {{0}, {1}};
  const DistributedResult result = runDistributedUnitTree(problem);
  EXPECT_EQ(result.solution.instances.size(), 2u);
  EXPECT_EQ(result.network.messages, 0) << "no neighbours, no messages";
}

TEST(DistProtocol, DeterministicAcrossRuns) {
  const TreeProblem problem = treeCase(14, 20, 16, 2);
  const DistributedResult a = runDistributedUnitTree(problem);
  const DistributedResult b = runDistributedUnitTree(problem);
  EXPECT_EQ(a.solution.instances, b.solution.instances);
  EXPECT_EQ(a.network.messages, b.network.messages);
  EXPECT_EQ(a.network.rounds, b.network.rounds);
}

TEST(DistProtocol, NarrowRuleRuns) {
  TreeScenarioConfig cfg;
  cfg.seed = 15;
  cfg.numVertices = 16;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 14;
  cfg.demands.heights = HeightMode::Narrow;
  cfg.demands.hmin = 0.25;
  const TreeProblem problem = makeTreeScenario(cfg);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  universe.buildConflicts();
  DistributedOptions opt;
  opt.rule = RaiseRule::Narrow;
  opt.hmin = 0.25;
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  requireFeasible(universe, result.solution);
  EXPECT_GE(result.lambdaMeasured, result.lambdaTarget - 1e-9);
  EXPECT_TRUE(result.localViewsConsistent);
}

}  // namespace
}  // namespace treesched
