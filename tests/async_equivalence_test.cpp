// Async/sync transport bit-equivalence sweep (acceptance gate of the
// net/ subsystem), extending the equivalence chain of
// dist_equivalence_test.cpp: synchronized-async ≡ round-synchronous
// (≡ centralized, by the existing gate).
//
// For every seed x {line, tree} the protocol over the alpha-synchronizer
// — including runs with drop rate > 0, random (uniform and heavy-tail)
// latencies and sharded placements — must select the same instances and
// report the same profit, duals and lambda as the round-synchronous bus,
// with every surviving local view consistent. Losses and latencies may
// only show up in the wire accounting (virtual time, retransmissions,
// drops), never in the result.
#include <gtest/gtest.h>

#include "dist/protocol.hpp"
#include "dist/sim_network.hpp"
#include "gen/scenario.hpp"
#include "net/runner.hpp"
#include "test_fixtures.hpp"

namespace treesched {
namespace {

constexpr std::uint64_t kSeeds[] = {11, 22, 33, 44, 55};

TreeProblem sweepTree(std::uint64_t seed) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 14 + static_cast<std::int32_t>(seed % 13);
  cfg.numNetworks = 2 + static_cast<std::int32_t>(seed % 2);
  cfg.demands.numDemands = 10 + static_cast<std::int32_t>(seed % 9);
  cfg.demands.accessProbability = 0.7;
  cfg.demands.profitMax = 9.0;
  return makeTreeScenario(cfg);
}

LineProblem sweepLine(std::uint64_t seed) {
  LineScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numSlots = 24 + static_cast<std::int32_t>(seed % 25);
  cfg.numResources = 2;
  cfg.demands.numDemands = 10 + static_cast<std::int32_t>(seed % 7);
  cfg.demands.windowSlack = 0.5;
  cfg.demands.processingMax = 5;
  cfg.demands.accessProbability = 0.8;
  return makeLineScenario(cfg);
}

DistributedOptions sweepOptions(std::uint64_t seed) {
  DistributedOptions opt;
  opt.seed = seed * 13 + 5;
  opt.misRoundBudget = 8;
  opt.stepsPerStage = 6;
  return opt;
}

/// A lossy async config exercising retransmission: uniform latencies and
/// a timeout tight enough that even undropped slow packets get resent.
AsyncConfig lossyUniform(std::uint64_t seed) {
  AsyncConfig net;
  net.seed = seed + 1;
  net.link.latency.model = LatencyModel::Uniform;
  net.link.latency.base = 1.0;
  net.link.latency.spread = 3.0;
  net.link.dropProbability = 0.15;
  net.link.retransmitTimeout = 5.0;
  return net;
}

AsyncConfig heavyTail(std::uint64_t seed) {
  AsyncConfig net;
  net.seed = seed + 2;
  net.link.latency.model = LatencyModel::HeavyTail;
  net.link.latency.base = 1.0;
  net.link.latency.tailShape = 1.5;
  net.link.latency.tailCap = 32.0;
  net.link.dropProbability = 0.05;
  return net;
}

void expectSameResult(const DistributedResult& async,
                      const DistributedResult& sync) {
  EXPECT_EQ(async.solution.instances, sync.solution.instances)
      << "async and sync transports must select identical instances";
  // Bit-identity is the Transport contract; exact comparison on purpose.
  EXPECT_EQ(async.profit, sync.profit);
  EXPECT_EQ(async.dualObjective, sync.dualObjective);
  EXPECT_EQ(async.lambdaMeasured, sync.lambdaMeasured);
  EXPECT_EQ(async.raises, sync.raises);
  EXPECT_TRUE(async.localViewsConsistent)
      << "local dual views must survive the lossy transport";
  // Round accounting is part of the synchronized execution, not the wire.
  EXPECT_EQ(async.network.rounds, sync.network.rounds);
  EXPECT_EQ(async.network.messages, sync.network.messages);
  EXPECT_EQ(async.network.payload, sync.network.payload);
}

class AsyncEquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AsyncEquivalenceSweep, TreeLossyUniformBitIdentical) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  const DistributedOptions opt = sweepOptions(seed);
  const DistributedResult sync = runDistributedUnitTree(problem, opt);
  const DistributedResult async =
      runAsyncUnitTree(problem, opt, lossyUniform(seed));
  expectSameResult(async, sync);
  // The drop rate is high enough that some packet was lost and resent.
  EXPECT_GT(async.network.drops, 0);
  EXPECT_GT(async.network.retransmissions, 0);
  EXPECT_GT(async.network.virtualTime, 0.0);
}

TEST_P(AsyncEquivalenceSweep, TreeHeavyTailBitIdentical) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  const DistributedOptions opt = sweepOptions(seed);
  const DistributedResult sync = runDistributedUnitTree(problem, opt);
  const DistributedResult async =
      runAsyncUnitTree(problem, opt, heavyTail(seed));
  expectSameResult(async, sync);
}

TEST_P(AsyncEquivalenceSweep, LineLossyUniformBitIdentical) {
  const std::uint64_t seed = GetParam();
  const LineProblem problem = sweepLine(seed);
  const DistributedOptions opt = sweepOptions(seed);
  const DistributedResult sync = runDistributedUnitLine(problem, opt);
  const DistributedResult async =
      runAsyncUnitLine(problem, opt, lossyUniform(seed));
  expectSameResult(async, sync);
}

TEST_P(AsyncEquivalenceSweep, LineHeavyTailBitIdentical) {
  const std::uint64_t seed = GetParam();
  const LineProblem problem = sweepLine(seed);
  const DistributedOptions opt = sweepOptions(seed);
  const DistributedResult sync = runDistributedUnitLine(problem, opt);
  const DistributedResult async =
      runAsyncUnitLine(problem, opt, heavyTail(seed));
  expectSameResult(async, sync);
}

// Duplicating-link faults: packets delivered twice at the transport
// layer must be absorbed by the dedup path — the ROADMAP claims the
// result stays bit-identical; this gates it.
TEST_P(AsyncEquivalenceSweep, TreeDuplicatingLinksBitIdentical) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  const DistributedOptions opt = sweepOptions(seed);
  const DistributedResult sync = runDistributedUnitTree(problem, opt);

  AsyncConfig net = lossyUniform(seed);
  net.link.duplicateProbability = 0.4;
  const DistributedResult async = runAsyncUnitTree(problem, opt, net);
  expectSameResult(async, sync);
  // The faults fired: the dedup path suppressed real duplicates.
  EXPECT_GT(async.network.duplicates, 0);
}

TEST_P(AsyncEquivalenceSweep, LineDuplicatingLinksBitIdentical) {
  const std::uint64_t seed = GetParam();
  const LineProblem problem = sweepLine(seed);
  const DistributedOptions opt = sweepOptions(seed);
  const DistributedResult sync = runDistributedUnitLine(problem, opt);

  AsyncConfig net = heavyTail(seed);
  net.link.duplicateProbability = 0.5;
  const DistributedResult async = runAsyncUnitLine(problem, opt, net);
  expectSameResult(async, sync);
  EXPECT_GT(async.network.duplicates, 0);
}

// Per-link heterogeneous latency: pinning some physical links to a far
// slower model costs virtual time only, never the result.
TEST_P(AsyncEquivalenceSweep, TreeHeterogeneousLinksBitIdentical) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  const DistributedOptions opt = sweepOptions(seed);
  const DistributedResult sync = runDistributedUnitTree(problem, opt);

  AsyncConfig uniform = lossyUniform(seed);
  uniform.link.retransmitTimeout = 0;  // auto: must cover the slow links
  AsyncConfig heterogeneous = uniform;
  // Pin a physical link that certainly carries traffic (round markers
  // cross every communication edge): the first edge of the graph.
  const CommunicationGraph graph =
      communicationGraph(problem.access, problem.numNetworks());
  LinkLatencyOverride slowLink;
  slowLink.endpointA = -1;
  for (DemandId d = 0; d < graph.numDemands() && slowLink.endpointA < 0;
       ++d) {
    const auto neighbors = testing::sortedNeighbors(graph, d);
    if (!neighbors.empty()) {
      slowLink.endpointA = d;
      slowLink.endpointB = neighbors.front();
    }
  }
  ASSERT_GE(slowLink.endpointA, 0) << "sweep problems are connected";
  slowLink.latency.model = LatencyModel::Fixed;
  slowLink.latency.base = 25.0;
  heterogeneous.link.latencyOverrides.push_back(slowLink);
  const DistributedResult fast = runAsyncUnitTree(problem, opt, uniform);
  const DistributedResult slow =
      runAsyncUnitTree(problem, opt, heterogeneous);
  expectSameResult(fast, sync);
  expectSameResult(slow, sync);
  EXPECT_GT(slow.network.virtualTime, fast.network.virtualTime);
}

// Sharded runs (several demands per simulated processor) must produce the
// same solution as unsharded runs, for both placement strategies.
TEST_P(AsyncEquivalenceSweep, TreeShardedMatchesUnsharded) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  const DistributedOptions opt = sweepOptions(seed);
  const DistributedResult sync = runDistributedUnitTree(problem, opt);

  for (const ShardStrategy strategy :
       {ShardStrategy::RoundRobin, ShardStrategy::Locality}) {
    AsyncConfig net = lossyUniform(seed);
    net.strategy = strategy;
    net.shardProcessors =
        std::max(2, static_cast<std::int32_t>(problem.demands.size()) / 3);
    const DistributedResult sharded = runAsyncUnitTree(problem, opt, net);
    expectSameResult(sharded, sync);
    // Sharding must not inflate the per-processor vector beyond the
    // physical processor count.
    EXPECT_EQ(static_cast<std::int32_t>(sharded.network.processorLoad.size()),
              net.shardProcessors);
  }
}

TEST_P(AsyncEquivalenceSweep, LineShardedMatchesUnsharded) {
  const std::uint64_t seed = GetParam();
  const LineProblem problem = sweepLine(seed);
  const DistributedOptions opt = sweepOptions(seed);
  const DistributedResult sync = runDistributedUnitLine(problem, opt);

  AsyncConfig net = heavyTail(seed);
  net.strategy = ShardStrategy::Locality;
  net.shardProcessors =
      std::max(2, static_cast<std::int32_t>(problem.demands.size()) / 4);
  const DistributedResult sharded = runAsyncUnitLine(problem, opt, net);
  expectSameResult(sharded, sync);
}

// Locality placement keeps same-network chatter off the wire: with few
// processors, physical transmissions stay below the demand-level message
// count times the retransmission overhead would suggest. (Coarse sanity
// bound: an unsharded lossless run makes at least one physical
// transmission per demand-level delivery.)
TEST(AsyncSharding, LocalityReducesWireTraffic) {
  const TreeProblem problem = sweepTree(33);
  const DistributedOptions opt = sweepOptions(33);

  AsyncConfig lossless;
  lossless.seed = 5;
  const DistributedResult unsharded = runAsyncUnitTree(problem, opt, lossless);

  AsyncConfig shardedNet = lossless;
  shardedNet.strategy = ShardStrategy::Locality;
  shardedNet.shardProcessors = 2;
  const DistributedResult sharded = runAsyncUnitTree(problem, opt, shardedNet);

  EXPECT_LT(sharded.network.transmissions, unsharded.network.transmissions);
  EXPECT_EQ(sharded.solution.instances, unsharded.solution.instances);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncEquivalenceSweep,
                         ::testing::ValuesIn(kSeeds),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace treesched
