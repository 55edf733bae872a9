// Focused unit tests for the framework primitives: dual state, raise
// rules, and the LHS tracker — the arithmetic Lemmas 3.1/6.1 lean on.
#include <gtest/gtest.h>

#include "core/universe.hpp"
#include "framework/lhs_tracker.hpp"
#include "framework/raise_policy.hpp"
#include "gen/scenario.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

InstanceUniverse tinyUniverse() {
  TreeProblem problem;
  problem.numVertices = 4;
  problem.networks.push_back(makePathTree(0, 4));  // edges 0,1,2
  problem.networks.push_back(makeStarTree(1, 4));
  auto add = [&](VertexId u, VertexId v, double profit, double height) {
    Demand d;
    d.id = static_cast<DemandId>(problem.demands.size());
    d.u = u;
    d.v = v;
    d.profit = profit;
    d.height = height;
    problem.demands.push_back(d);
    problem.access.push_back({0, 1});
  };
  add(0, 3, 6.0, 1.0);
  add(1, 2, 4.0, 0.5);
  return InstanceUniverse::fromTreeProblem(problem);
}

TEST(DualState, StartsAtZeroAndAccumulates) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  EXPECT_DOUBLE_EQ(dual.objective(), 0.0);
  dual.raiseAlpha(0, 1.5);
  dual.raiseBeta(2, 0.5);
  dual.raiseBeta(2, 0.25);
  EXPECT_DOUBLE_EQ(dual.alpha(0), 1.5);
  EXPECT_DOUBLE_EQ(dual.beta(2), 0.75);
  EXPECT_DOUBLE_EQ(dual.objective(), 2.25);
}

TEST(DualState, SparseObjectiveAndResetMatchTheDenseArrays) {
  // objective() sums only the touched ids; it must equal the dense
  // alpha-then-beta sum bit for bit, through raises and signed purges,
  // and reset() must leave every entry at exactly zero.
  // Sized so the edges stay sparse (the sorted path) while the demands
  // fill up (the dense path).
  struct PoolSizes {
    std::int32_t numDemands() const { return 40; }
    std::int32_t numGlobalEdges() const { return 4000; }
  };
  const PoolSizes u;
  DualState dual(u);
  const auto dense = [&] {
    double total = 0;
    for (DemandId d = 0; d < u.numDemands(); ++d) total += dual.alpha(d);
    for (GlobalEdgeId e = 0; e < u.numGlobalEdges(); ++e) {
      total += dual.beta(e);
    }
    return total;
  };
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int step = 0; step < 200; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double by = static_cast<double>(x % 1000) / 7.0;
    const double sign = step % 5 == 4 ? -1.0 : 1.0;
    if (x % 3 == 0) {
      dual.raiseAlpha(static_cast<DemandId>(x % 40), sign * by);
    } else {
      dual.raiseBeta(static_cast<GlobalEdgeId>(x % 4000), sign * by);
    }
    ASSERT_EQ(dual.objective(), dense()) << "step " << step;
  }
  dual.reset();
  EXPECT_EQ(dual.objective(), 0.0);
  EXPECT_EQ(dense(), 0.0);
  EXPECT_TRUE(dual.touchedDemands().empty());
  EXPECT_TRUE(dual.touchedEdges().empty());
}

TEST(RaisePolicy, UnitLhsSumsPathBetas) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  // Instance 0 = demand 0 on network 0 (path 0->3: edges 0,1,2).
  dual.raiseAlpha(0, 1.0);
  dual.raiseBeta(u.globalEdge(0, 0), 2.0);
  dual.raiseBeta(u.globalEdge(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(dualLhs(RaiseRule::Unit, u, dual, 0), 6.0);
}

TEST(RaisePolicy, NarrowLhsScalesBetaByHeight) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  // Instance 2 = demand 1 (h = 0.5) on network 0 (path 1->2: edge 1).
  dual.raiseAlpha(1, 1.0);
  dual.raiseBeta(u.globalEdge(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(dualLhs(RaiseRule::Narrow, u, dual, 2), 1.0 + 0.5 * 4.0);
}

TEST(RaisePolicy, UnitRaiseMakesConstraintTight) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  const GlobalEdgeId critical[] = {u.globalEdge(0, 0), u.globalEdge(0, 2)};
  const double slack = 6.0 - dualLhs(RaiseRule::Unit, u, dual, 0);
  const RaiseAmounts amounts = computeRaise(RaiseRule::Unit, u, 0, critical,
                                            slack);
  // delta = slack / (|pi| + 1) = 6/3 = 2; alpha and both betas rise by 2.
  EXPECT_DOUBLE_EQ(amounts.alphaIncrement, 2.0);
  EXPECT_DOUBLE_EQ(amounts.betaIncrement, 2.0);
  applyRaise(dual, u, 0, critical, amounts);
  EXPECT_DOUBLE_EQ(dualLhs(RaiseRule::Unit, u, dual, 0), 6.0);
}

TEST(RaisePolicy, NarrowRaiseMakesConstraintTight) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  // Instance 2: demand 1 (p = 4, h = 0.5), path = one edge.
  const GlobalEdgeId critical[] = {u.globalEdge(0, 1)};
  const RaiseAmounts amounts =
      computeRaise(RaiseRule::Narrow, u, 2, critical, 4.0);
  // delta = s / (1 + 2 h |pi|^2) = 4 / (1 + 1) = 2; beta += 2|pi| delta = 4.
  EXPECT_DOUBLE_EQ(amounts.alphaIncrement, 2.0);
  EXPECT_DOUBLE_EQ(amounts.betaIncrement, 4.0);
  applyRaise(dual, u, 2, critical, amounts);
  EXPECT_DOUBLE_EQ(dualLhs(RaiseRule::Narrow, u, dual, 2), 4.0);
}

TEST(RaisePolicy, NarrowRuleRejectsWideInstance) {
  const InstanceUniverse u = tinyUniverse();
  const GlobalEdgeId critical[] = {u.globalEdge(0, 0)};
  // Instance 0 has height 1.0 (wide).
  EXPECT_THROW(computeRaise(RaiseRule::Narrow, u, 0, critical, 1.0),
               CheckError);
}

TEST(RaisePolicy, RaiseRequiresPositiveSlack) {
  const InstanceUniverse u = tinyUniverse();
  const GlobalEdgeId critical[] = {u.globalEdge(0, 0)};
  EXPECT_THROW(computeRaise(RaiseRule::Unit, u, 0, critical, 0.0), CheckError);
  EXPECT_THROW(computeRaise(RaiseRule::Unit, u, 0, critical, -1.0), CheckError);
}

TEST(LhsTracker, MatchesDirectComputation) {
  TreeScenarioConfig cfg;
  cfg.seed = 3;
  cfg.numVertices = 16;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 12;
  cfg.demands.heights = HeightMode::Narrow;
  cfg.demands.hmin = 0.2;
  const TreeProblem problem = makeTreeScenario(cfg);
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);

  for (const RaiseRule rule : {RaiseRule::Unit, RaiseRule::Narrow}) {
    DualState dual(u);
    LhsTracker tracker(u, rule);
    Rng rng(17);
    // Random raises, tracker must equal the from-scratch dual LHS.
    for (int step = 0; step < 40; ++step) {
      const auto d = static_cast<DemandId>(
          rng.nextBounded(static_cast<std::uint64_t>(u.numDemands())));
      const auto e = static_cast<GlobalEdgeId>(
          rng.nextBounded(static_cast<std::uint64_t>(u.numGlobalEdges())));
      const double byAlpha = rng.nextDouble(0.0, 2.0);
      const double byBeta = rng.nextDouble(0.0, 2.0);
      dual.raiseAlpha(d, byAlpha);
      tracker.onAlphaRaise(d, byAlpha);
      dual.raiseBeta(e, byBeta);
      tracker.onBetaRaise(e, byBeta);
    }
    for (InstanceId i = 0; i < u.numInstances(); ++i) {
      EXPECT_NEAR(tracker.lhs(i), dualLhs(rule, u, dual, i), 1e-9)
          << "instance " << i;
    }
  }
}

TEST(LhsTracker, OnRaiseAppliesAlphaThenEdges) {
  const InstanceUniverse u = tinyUniverse();
  LhsTracker tracker(u, RaiseRule::Unit);
  const GlobalEdgeId critical[] = {u.globalEdge(0, 0), u.globalEdge(0, 2)};
  RaiseAmounts amounts;
  amounts.alphaIncrement = 1.0;
  amounts.betaIncrement = 2.0;
  tracker.onRaise(0, critical, amounts);
  // Instance 0 (demand 0, path edges 0,1,2): alpha 1 + edges 0,2 -> 2+2.
  EXPECT_DOUBLE_EQ(tracker.lhs(0), 5.0);
  // Instance 1 (demand 0 on star): alpha only.
  EXPECT_DOUBLE_EQ(tracker.lhs(1), 1.0);
  // Instance 2 (demand 1 on path, edge 1): untouched.
  EXPECT_DOUBLE_EQ(tracker.lhs(2), 0.0);
}

}  // namespace
}  // namespace treesched
