// Scale smoke tests: moderately large instances through every code path,
// asserting the structural invariants still hold and nothing degenerates
// (these sizes are the benchmark operating range; the point is that the
// invariants checked exhaustively on small inputs keep holding here).
#include <gtest/gtest.h>

#include <cmath>

#include "algo/sequential_tree.hpp"
#include "algo/solvers.hpp"
#include "core/universe.hpp"
#include "gen/scenario.hpp"

namespace treesched {
namespace {

TEST(Scale, UnitTreeFiveHundredDemands) {
  TreeScenarioConfig cfg;
  cfg.seed = 1001;
  cfg.numVertices = 200;
  cfg.numNetworks = 4;
  cfg.demands.numDemands = 500;
  cfg.demands.accessProbability = 0.6;
  cfg.demands.profitMax = 50.0;
  const TreeProblem problem = makeTreeScenario(cfg);

  const auto r = solveUnit(problem);
  EXPECT_EQ(checkAssignments(problem, r.assignments), "");
  EXPECT_GE(r.stats.lambdaMeasured, r.stats.lambdaTarget - 1e-9);
  EXPECT_LE(r.stats.delta, 6);
  EXPECT_GE(r.dualUpperBound, r.profit - 1e-9);
}

TEST(Scale, ArbitraryTreeMixedHeights) {
  TreeScenarioConfig cfg;
  cfg.seed = 1002;
  cfg.numVertices = 128;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 300;
  cfg.demands.heights = HeightMode::Mixed;
  cfg.demands.hmin = 0.25;
  cfg.demands.accessProbability = 0.6;
  const TreeProblem problem = makeTreeScenario(cfg);

  const auto r = solveArbitrary(problem);
  EXPECT_EQ(checkAssignments(problem, r.assignments), "");
  EXPECT_GE(r.profit, std::max(r.wideProfit, r.narrowProfit) - 1e-9);
  EXPECT_GE(r.dualUpperBound, r.profit - 1e-9);
}

TEST(Scale, LineWithWindowsManyInstances) {
  LineScenarioConfig cfg;
  cfg.seed = 1003;
  cfg.numSlots = 256;
  cfg.numResources = 3;
  cfg.demands.numDemands = 200;
  cfg.demands.processingMax = 16;
  cfg.demands.windowSlack = 0.5;
  cfg.demands.accessProbability = 0.6;
  const LineProblem problem = makeLineScenario(cfg);

  const InstanceUniverse u = InstanceUniverse::fromLineProblem(problem);
  EXPECT_GT(u.numInstances(), 1000) << "windows should multiply instances";

  const auto r = solveUnit(problem);
  EXPECT_EQ(checkAssignments(problem, r.assignments), "");
  EXPECT_LE(r.stats.delta, 3);
  EXPECT_GE(r.stats.lambdaMeasured, r.stats.lambdaTarget - 1e-9);
}

TEST(Scale, SequentialHandlesLargeInstanceCounts) {
  TreeScenarioConfig cfg;
  cfg.seed = 1004;
  cfg.numVertices = 256;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 600;
  cfg.demands.accessProbability = 0.5;
  const TreeProblem problem = makeTreeScenario(cfg);

  const SequentialTreeResult r = solveSequentialTree(problem);
  EXPECT_EQ(checkAssignments(problem, r.assignments), "");
  EXPECT_LE(r.delta, 2);
  EXPECT_GT(r.iterations, 0);
}

TEST(Scale, RoundGrowthStaysPolylog) {
  // Doubling n four times must not blow up MIS rounds super-polylog:
  // compare against c * lg(n)^2 * lg(pmax/pmin) with a generous constant.
  for (const std::int32_t n : {64, 128, 256}) {
    TreeScenarioConfig cfg;
    cfg.seed = 1005 + static_cast<std::uint64_t>(n);
    cfg.numVertices = n;
    cfg.numNetworks = 3;
    cfg.demands.numDemands = 2 * n;
    cfg.demands.accessProbability = 0.6;
    const TreeProblem problem = makeTreeScenario(cfg);
    const auto r = solveUnit(problem);
    const double lg = std::log2(static_cast<double>(n));
    EXPECT_LE(r.stats.misRounds, 40.0 * lg * lg)
        << "MIS rounds super-polylogarithmic at n=" << n;
  }
}

}  // namespace
}  // namespace treesched
