// Experiment E13 (extension) — local-search post-processing.
//
// Quantifies how much a cheap deterministic cleanup (add + 1-out swap
// moves) recovers on top of each algorithm's phase-2 greedy, and how close
// the combination gets to the dual certificate. Not part of the paper's
// protocol; it demonstrates that the primal-dual solutions are good
// *starting points* whose guarantees survive post-processing.
#include <iostream>

#include "algo/sequential_tree.hpp"
#include "algo/solvers.hpp"
#include "bench_common.hpp"
#include "core/universe.hpp"
#include "exact/greedy.hpp"
#include "exact/local_search.hpp"
#include "gen/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

Solution solutionFromAssignments(const InstanceUniverse& u,
                                 const std::vector<TreeAssignment>& as) {
  Solution s;
  for (const TreeAssignment& a : as) {
    for (const InstanceId i : u.instancesOfDemand(a.demand)) {
      if (u.instance(i).network == a.network) {
        s.instances.push_back(i);
      }
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seeds", 3, "instances per configuration");
  if (!flags.parse(argc, argv)) return 0;
  const auto seeds = flags.getInt("seeds");

  bench::banner(
      "E13 (extension)",
      "local search (add + swap to fixed point) on top of phase-2 greedy; "
      "guarantees carry over since profit never decreases",
      "'+LS' >= base profit on every row; residual gap to the dual UB "
      "shrinks; improvement is largest for the weakest starting point "
      "(greedy)");

  Table table({"n", "m", "algorithm", "base", "+LS", "gain%", "vs UB before",
               "vs UB after", "swaps"});

  struct Config {
    std::int32_t n, m;
  };
  const Config configs[] = {{24, 40}, {64, 128}, {128, 256}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      TreeScenarioConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(s) * 7368787 + 13;
      cfg.numVertices = c.n;
      cfg.numNetworks = 3;
      cfg.demands.numDemands = c.m;
      cfg.demands.accessProbability = 0.7;
      const TreeProblem problem = makeTreeScenario(cfg);
      InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);

      SolverOptions options;
      options.seed = cfg.seed + 1;
      const auto dist = solveUnit(problem, options);
      const SequentialTreeResult seq = solveSequentialTree(problem);
      const GreedyResult greedy = greedyByProfit(u);

      struct Row {
        std::string name;
        Solution start;
        double base;
        double ub;
      };
      const Row rows[] = {
          {"distributed", solutionFromAssignments(u, dist.assignments),
           dist.profit, dist.dualUpperBound},
          {"sequential", solutionFromAssignments(u, seq.assignments),
           seq.profit, seq.dualUpperBound},
          {"greedy", greedy.solution, greedy.profit, dist.dualUpperBound},
      };
      for (const Row& row : rows) {
        const LocalSearchResult ls = improveSolution(u, row.start);
        table.row()
            .cell(c.n)
            .cell(c.m)
            .cell(row.name)
            .cell(row.base, 1)
            .cell(ls.profit, 1)
            .cell(100.0 * (ls.profit - row.base) / row.base, 1)
            .cell(row.ub / row.base, 3)
            .cell(row.ub / ls.profit, 3)
            .cell(ls.swapMoves);
      }
    }
  }
  table.print(std::cout);
  return 0;
}
