#include <gtest/gtest.h>

#include "algo/solvers.hpp"
#include "core/universe.hpp"
#include "exact/brute_force.hpp"
#include "exact/greedy.hpp"
#include "exact/local_search.hpp"
#include "gen/scenario.hpp"

namespace treesched {
namespace {

InstanceUniverse mediumUniverse(std::uint64_t seed,
                                HeightMode heights = HeightMode::Unit) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 20;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 24;
  cfg.demands.heights = heights;
  cfg.demands.hmin = 0.2;
  cfg.demands.accessProbability = 0.7;
  return InstanceUniverse::fromTreeProblem(makeTreeScenario(cfg));
}

TEST(LocalSearch, NeverDegradesAndStaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const InstanceUniverse u = mediumUniverse(seed);
    const GreedyResult start = greedyByProfit(u);
    const LocalSearchResult improved = improveSolution(u, start.solution);
    requireFeasible(u, improved.solution);
    EXPECT_GE(improved.profit, start.profit - 1e-9) << "seed " << seed;
  }
}

TEST(LocalSearch, FillsEmptySolution) {
  const InstanceUniverse u = mediumUniverse(2);
  const LocalSearchResult result = improveSolution(u, Solution{});
  EXPECT_GT(result.profit, 0);
  EXPECT_GT(result.addMoves, 0);
  requireFeasible(u, result.solution);
}

TEST(LocalSearch, IdempotentAtLocalOptimum) {
  const InstanceUniverse u = mediumUniverse(3);
  const LocalSearchResult once = improveSolution(u, Solution{});
  const LocalSearchResult twice = improveSolution(u, once.solution);
  EXPECT_DOUBLE_EQ(once.profit, twice.profit);
  EXPECT_EQ(once.solution.instances, twice.solution.instances);
  EXPECT_EQ(twice.swapMoves, 0);
}

TEST(LocalSearch, SwapEscapesGreedyTrap) {
  // Crafted trap: one fat demand blocks two thin ones worth more together.
  // Path 0-1-2-3-4; demand A spans everything (profit 3); demands B
  // (0->2, profit 2) and C (2->4, profit 2) fit together for 4.
  TreeProblem problem;
  problem.numVertices = 5;
  problem.networks.push_back(makePathTree(0, 5));
  auto add = [&](VertexId u, VertexId v, double profit) {
    Demand d;
    d.id = static_cast<DemandId>(problem.demands.size());
    d.u = u;
    d.v = v;
    d.profit = profit;
    problem.demands.push_back(d);
    problem.access.push_back({0});
  };
  add(0, 4, 3.0);
  add(0, 2, 2.0);
  add(2, 4, 2.0);
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);

  Solution trapped;
  trapped.instances = {0};  // the fat demand
  const LocalSearchResult result = improveSolution(u, trapped);
  EXPECT_DOUBLE_EQ(result.profit, 4.0) << "swap must trade A for B+C";
  EXPECT_GE(result.swapMoves, 1);
}

TEST(LocalSearch, ReachesOptimumOnSmallInstances) {
  int optimalCount = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TreeScenarioConfig cfg;
    cfg.seed = seed + 40;
    cfg.numVertices = 10;
    cfg.numNetworks = 2;
    cfg.demands.numDemands = 8;
    const TreeProblem problem = makeTreeScenario(cfg);
    const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
    const ExactResult exact = bruteForceExact(u);
    ASSERT_TRUE(exact.provedOptimal);
    const LocalSearchResult ls = improveSolution(u, Solution{});
    EXPECT_LE(ls.profit, exact.profit + 1e-9);
    if (ls.profit >= exact.profit - 1e-9) ++optimalCount;
  }
  // Local search is a heuristic; it should still hit the optimum often on
  // tiny instances.
  EXPECT_GE(optimalCount, 5);
}

TEST(LocalSearch, ImprovesDistributedSolverOutput) {
  TreeScenarioConfig cfg;
  cfg.seed = 55;
  cfg.numVertices = 24;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 40;
  const TreeProblem problem = makeTreeScenario(cfg);
  const auto solver = solveUnit(problem);

  // Rebuild the solver's solution at universe level.
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  Solution sol;
  for (const TreeAssignment& a : solver.assignments) {
    for (const InstanceId i : u.instancesOfDemand(a.demand)) {
      if (u.instance(i).network == a.network) {
        sol.instances.push_back(i);
      }
    }
  }
  const LocalSearchResult improved = improveSolution(u, sol);
  EXPECT_GE(improved.profit, solver.profit - 1e-9);
  requireFeasible(u, improved.solution);
  // The theoretical guarantee carries over: improved profit still bounds
  // OPT via the solver's certificate.
  EXPECT_GE(improved.profit * solver.certifiedBound,
            solver.profit * solver.certifiedBound - 1e-9);
}

TEST(LocalSearch, WorksWithFractionalHeights) {
  const InstanceUniverse u = mediumUniverse(6, HeightMode::Mixed);
  const LocalSearchResult result = improveSolution(u, Solution{});
  requireFeasible(u, result.solution);
  EXPECT_GT(result.profit, 0);
}

TEST(LocalSearch, PassLimitRespected) {
  const InstanceUniverse u = mediumUniverse(7);
  const LocalSearchResult result = improveSolution(u, Solution{}, 1);
  EXPECT_EQ(result.passes, 1);
  requireFeasible(u, result.solution);
}

}  // namespace
}  // namespace treesched
