// Cross-cutting property sweeps: for a grid of workload families, every
// solver must (a) output feasible assignments, (b) respect its certified
// approximation bound against the exact optimum, (c) never exceed the dual
// certificate, and (d) obey Lemma 3.1 / 6.1's dual-vs-solution inequality.
// These are the paper's guarantees quantified over many inputs rather than
// single cases.
#include <gtest/gtest.h>

#include <string>

#include "algo/sequential_tree.hpp"
#include "algo/solvers.hpp"
#include "core/universe.hpp"
#include "exact/brute_force.hpp"
#include "gen/scenario.hpp"

namespace treesched {
namespace {

struct TreeGridCase {
  TreeShape shape;
  HeightMode heights;
  std::int32_t r;
  std::uint64_t seed;
};

std::string heightModeName(HeightMode m) {
  switch (m) {
    case HeightMode::Unit:
      return "unit";
    case HeightMode::Narrow:
      return "narrow";
    case HeightMode::Wide:
      return "wide";
    case HeightMode::Mixed:
      return "mixed";
  }
  return "?";
}

class TreeSolverGrid : public ::testing::TestWithParam<TreeGridCase> {};

TEST_P(TreeSolverGrid, GuaranteesHoldAgainstExactOptimum) {
  const auto& param = GetParam();
  TreeScenarioConfig cfg;
  cfg.seed = param.seed;
  cfg.numVertices = 12;
  cfg.numNetworks = param.r;
  cfg.shape = param.shape;
  cfg.demands.numDemands = 9;
  cfg.demands.heights = param.heights;
  cfg.demands.hmin = 0.2;
  cfg.demands.accessProbability = 0.75;
  const TreeProblem problem = makeTreeScenario(cfg);

  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const ExactResult exact = bruteForceExact(universe);
  ASSERT_TRUE(exact.provedOptimal);

  if (param.heights == HeightMode::Unit) {
    const auto r = solveUnit(problem);
    EXPECT_EQ(checkAssignments(problem, r.assignments), "");
    EXPECT_GE(r.profit * r.certifiedBound, exact.profit - 1e-6);
    EXPECT_LE(r.profit, exact.profit + 1e-6);
    EXPECT_GE(r.dualUpperBound, exact.profit - 1e-6);
    EXPECT_GE(r.stats.lambdaMeasured, r.stats.lambdaTarget - 1e-9);

    const SequentialTreeResult seq = solveSequentialTree(problem);
    EXPECT_EQ(checkAssignments(problem, seq.assignments), "");
    EXPECT_GE(seq.profit * seq.certifiedBound, exact.profit - 1e-6);
  } else {
    for (const SchedulePolicy policy :
         {SchedulePolicy::Staged, SchedulePolicy::Threshold}) {
      SolverOptions options;
      options.schedule = policy;
      const auto r = solveArbitrary(problem, options);
      EXPECT_EQ(checkAssignments(problem, r.assignments), "");
      EXPECT_GE(r.profit * r.certifiedBound, exact.profit - 1e-6);
      EXPECT_LE(r.profit, exact.profit + 1e-6);
      EXPECT_GE(r.dualUpperBound, exact.profit - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TreeSolverGrid,
    ::testing::Values(
        TreeGridCase{TreeShape::UniformRandom, HeightMode::Unit, 1, 1},
        TreeGridCase{TreeShape::UniformRandom, HeightMode::Unit, 2, 2},
        TreeGridCase{TreeShape::UniformRandom, HeightMode::Unit, 3, 3},
        TreeGridCase{TreeShape::UniformRandom, HeightMode::Mixed, 2, 4},
        TreeGridCase{TreeShape::UniformRandom, HeightMode::Narrow, 2, 5},
        TreeGridCase{TreeShape::UniformRandom, HeightMode::Wide, 2, 6},
        TreeGridCase{TreeShape::Path, HeightMode::Unit, 2, 7},
        TreeGridCase{TreeShape::Path, HeightMode::Mixed, 2, 8},
        TreeGridCase{TreeShape::Star, HeightMode::Unit, 2, 9},
        TreeGridCase{TreeShape::Star, HeightMode::Narrow, 2, 10},
        TreeGridCase{TreeShape::Caterpillar, HeightMode::Unit, 2, 11},
        TreeGridCase{TreeShape::Caterpillar, HeightMode::Mixed, 3, 12},
        TreeGridCase{TreeShape::Spider, HeightMode::Unit, 2, 13},
        TreeGridCase{TreeShape::BalancedBinary, HeightMode::Unit, 2, 14},
        TreeGridCase{TreeShape::BalancedBinary, HeightMode::Mixed, 2, 15},
        TreeGridCase{TreeShape::RandomAttachment, HeightMode::Unit, 3, 16},
        TreeGridCase{TreeShape::RandomAttachment, HeightMode::Narrow, 2, 17},
        TreeGridCase{TreeShape::UniformRandom, HeightMode::Unit, 4, 18},
        TreeGridCase{TreeShape::Path, HeightMode::Narrow, 1, 19},
        TreeGridCase{TreeShape::Star, HeightMode::Mixed, 3, 20}),
    [](const ::testing::TestParamInfo<TreeGridCase>& info) {
      return treeShapeName(info.param.shape) + "_" +
             heightModeName(info.param.heights) + "_r" +
             std::to_string(info.param.r) + "_s" +
             std::to_string(info.param.seed);
    });

struct LineGridCase {
  HeightMode heights;
  double slack;
  std::int32_t r;
  std::uint64_t seed;
};

class LineSolverGrid : public ::testing::TestWithParam<LineGridCase> {};

TEST_P(LineSolverGrid, GuaranteesHoldAgainstExactOptimum) {
  const auto& param = GetParam();
  LineScenarioConfig cfg;
  cfg.seed = param.seed;
  cfg.numSlots = 20;
  cfg.numResources = param.r;
  cfg.demands.numDemands = 8;
  cfg.demands.heights = param.heights;
  cfg.demands.hmin = 0.2;
  cfg.demands.processingMax = 5;
  cfg.demands.windowSlack = param.slack;
  cfg.demands.accessProbability = 0.75;
  const LineProblem problem = makeLineScenario(cfg);

  InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  const ExactResult exact = bruteForceExact(universe);
  ASSERT_TRUE(exact.provedOptimal);

  if (param.heights == HeightMode::Unit) {
    for (const SchedulePolicy policy :
         {SchedulePolicy::Staged, SchedulePolicy::Threshold}) {
      SolverOptions options;
      options.schedule = policy;
      const auto r = solveUnit(problem, options);
      EXPECT_EQ(checkAssignments(problem, r.assignments), "");
      EXPECT_GE(r.profit * r.certifiedBound, exact.profit - 1e-6);
      EXPECT_LE(r.profit, exact.profit + 1e-6);
      EXPECT_GE(r.dualUpperBound, exact.profit - 1e-6);
    }
  } else {
    const auto r = solveArbitrary(problem);
    EXPECT_EQ(checkAssignments(problem, r.assignments), "");
    EXPECT_GE(r.profit * r.certifiedBound, exact.profit - 1e-6);
    EXPECT_GE(r.dualUpperBound, exact.profit - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LineSolverGrid,
    ::testing::Values(LineGridCase{HeightMode::Unit, 0.0, 1, 21},
                      LineGridCase{HeightMode::Unit, 0.0, 2, 22},
                      LineGridCase{HeightMode::Unit, 0.5, 2, 23},
                      LineGridCase{HeightMode::Unit, 1.5, 2, 24},
                      LineGridCase{HeightMode::Unit, 1.0, 3, 25},
                      LineGridCase{HeightMode::Mixed, 0.0, 2, 26},
                      LineGridCase{HeightMode::Mixed, 0.5, 2, 27},
                      LineGridCase{HeightMode::Narrow, 0.5, 2, 28},
                      LineGridCase{HeightMode::Wide, 1.0, 2, 29},
                      LineGridCase{HeightMode::Mixed, 1.0, 1, 30}),
    [](const ::testing::TestParamInfo<LineGridCase>& info) {
      return heightModeName(info.param.heights) + "_w" +
             std::to_string(static_cast<int>(info.param.slack * 10)) + "_r" +
             std::to_string(info.param.r) + "_s" +
             std::to_string(info.param.seed);
    });

// Profit-scaling invariance: scaling all profits by a constant must scale
// the solution value and keep the same schedule (the algorithm depends on
// profit *ratios* only — slacks scale linearly and MIS priorities are
// profit-free).
TEST(Invariance, ProfitScaling) {
  TreeScenarioConfig cfg;
  cfg.seed = 77;
  cfg.numVertices = 16;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 14;
  TreeProblem problem = makeTreeScenario(cfg);
  const auto base = solveUnit(problem);

  for (Demand& d : problem.demands) {
    d.profit *= 10.0;
  }
  const auto scaled = solveUnit(problem);
  ASSERT_EQ(base.assignments.size(), scaled.assignments.size());
  for (std::size_t i = 0; i < base.assignments.size(); ++i) {
    EXPECT_EQ(base.assignments[i].demand, scaled.assignments[i].demand);
    EXPECT_EQ(base.assignments[i].network, scaled.assignments[i].network);
  }
  EXPECT_NEAR(scaled.profit, 10.0 * base.profit, 1e-6);
}

// Seed sensitivity: different seeds may give different schedules but all
// must respect the same certificate.
TEST(Invariance, AllSeedsRespectCertificate) {
  TreeScenarioConfig cfg;
  cfg.seed = 88;
  cfg.numVertices = 14;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 10;
  const TreeProblem problem = makeTreeScenario(cfg);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const ExactResult exact = bruteForceExact(universe);
  ASSERT_TRUE(exact.provedOptimal);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SolverOptions options;
    options.seed = seed;
    const auto r = solveUnit(problem, options);
    EXPECT_GE(r.profit * r.certifiedBound, exact.profit - 1e-6)
        << "seed " << seed;
    EXPECT_EQ(checkAssignments(problem, r.assignments), "") << "seed " << seed;
  }
}

// Monotonicity sanity: adding a demand never makes the certified upper
// bound smaller than the previous solution (OPT only grows).
TEST(Invariance, UpperBoundGrowsWithDemands) {
  TreeScenarioConfig cfg;
  cfg.seed = 99;
  cfg.numVertices = 14;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 8;
  TreeProblem problem = makeTreeScenario(cfg);
  const auto before = solveUnit(problem);

  Demand extra;
  extra.id = problem.numDemands();
  extra.u = 0;
  extra.v = 1;
  extra.profit = 100.0;  // dominating demand
  problem.demands.push_back(extra);
  problem.access.push_back({0, 1});
  problem.validate();
  const auto after = solveUnit(problem);
  EXPECT_GE(after.dualUpperBound, before.profit - 1e-9);
  // The dominating demand's dual constraint is (1-eps)-satisfied after
  // phase 1, so the dual objective alone already exceeds 90.
  EXPECT_GE(after.dualUpperBound, 90.0 - 1e-6);
  // And the solution must capture a significant part of it: by the
  // certificate, profit >= UB / bound >= 90 / (7/(1-eps)).
  EXPECT_GE(after.profit * after.certifiedBound, 90.0 - 1e-6);
}

}  // namespace
}  // namespace treesched
