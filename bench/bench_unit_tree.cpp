// Experiment E3 — unit-height trees: approximation quality (Theorem 5.3).
//
// Measures p(S) against the exact optimum (branch-and-bound, small
// instances) and against the LP-dual certificate val/lambda (all sizes).
// The paper proves ratio <= 7+eps; typical measured ratios are far better.
// Also compares against the profit-greedy baseline.
#include <iostream>

#include "algo/solvers.hpp"
#include "bench_common.hpp"
#include "core/universe.hpp"
#include "exact/greedy.hpp"
#include "gen/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seeds", 3, "seeds per configuration");
  flags.doubleFlag("epsilon", 0.1, "approximation slack");
  if (!flags.parse(argc, argv)) return 0;
  const auto seeds = flags.getInt("seeds");
  const double epsilon = flags.getDouble("epsilon");

  bench::banner(
      "E3",
      "Theorem 5.3: distributed (7+eps)-approximation for unit-height "
      "tree-networks",
      "'vs OPT' (when exact) and 'vs dual UB' ratios <= certified bound "
      "7/(1-eps) on every row, typically ~1-2x; algorithm beats or matches "
      "greedy on most rows");

  Table table({"n", "m", "r", "vs OPT", "OPT exact", "vs dual UB", "certified",
               "profit", "greedy", "rounds(MIS)"});

  struct Config {
    std::int32_t n, m, r;
  };
  const Config configs[] = {{12, 10, 2},   {16, 16, 2},  {24, 20, 3},
                            {64, 96, 3},   {128, 256, 4}, {256, 512, 4}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      TreeScenarioConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(s) * 7919 + 11;
      cfg.numVertices = c.n;
      cfg.numNetworks = c.r;
      cfg.demands.numDemands = c.m;
      cfg.demands.accessProbability = 0.7;
      cfg.demands.profitMax = 10.0;
      const TreeProblem problem = makeTreeScenario(cfg);

      SolverOptions options;
      options.epsilon = epsilon;
      options.seed = cfg.seed + 1;
      const auto result = solveUnit(problem, options);

      InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
      const bench::OptEstimate opt =
          c.m <= 20 ? bench::estimateOpt(universe)
                    : bench::OptEstimate{result.profit, false};
      const GreedyResult greedy = greedyByProfit(universe);

      table.row()
          .cell(c.n)
          .cell(c.m)
          .cell(c.r)
          .cell(opt.exact ? formatDouble(opt.lowerBound / result.profit, 3)
                          : std::string("-"))
          .cell(opt.exact ? "yes" : "no")
          .cell(result.dualUpperBound / result.profit, 3)
          .cell(result.certifiedBound, 3)
          .cell(result.profit, 1)
          .cell(greedy.profit, 1)
          .cell(result.stats.misRounds);
    }
  }
  table.print(std::cout);
  return 0;
}
