// Experiment E8 — sequential algorithm for trees (paper Appendix A).
//
// Delta = 2, lambda = 1 -> 3-approximation (2 for a single network).
// Measures the actual ratio against exact OPT on small instances and the
// dual certificate at scale, plus the iteration count (which, unlike the
// distributed algorithm, can reach |D|).
#include <iostream>

#include "algo/sequential_tree.hpp"
#include "algo/solvers.hpp"
#include "bench_common.hpp"
#include "core/universe.hpp"
#include "gen/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seeds", 3, "seeds per configuration");
  if (!flags.parse(argc, argv)) return 0;
  const auto seeds = flags.getInt("seeds");

  bench::banner(
      "E8",
      "Appendix A: sequential two-phase algorithm with Delta = 2, lambda = 1 "
      "is a 3-approximation (2 for r = 1); round complexity can be as high "
      "as the number of instances",
      "'vs OPT' <= 3 (r > 1) / <= 2 (r = 1) on every exact row; iterations "
      "grow linearly with instances (contrast with E4's polylog rounds); "
      "sequential profit usually >= distributed profit (lambda = 1 vs 1-eps)");

  Table table({"n", "m", "r", "vs OPT", "OPT exact", "vs dual UB", "bound",
               "iterations", "instances", "seq profit", "dist profit"});

  struct Config {
    std::int32_t n, m, r;
  };
  const Config configs[] = {{12, 9, 1},  {12, 9, 2},   {24, 18, 2},
                            {64, 96, 1}, {64, 96, 3},  {256, 384, 3}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      TreeScenarioConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(s) * 982451653 + 61;
      cfg.numVertices = c.n;
      cfg.numNetworks = c.r;
      cfg.demands.numDemands = c.m;
      cfg.demands.accessProbability = 0.7;
      const TreeProblem problem = makeTreeScenario(cfg);

      const SequentialTreeResult seq = solveSequentialTree(problem);
      SolverOptions options;
      options.seed = cfg.seed + 1;
      const auto dist = solveUnit(problem, options);

      InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
      const bench::OptEstimate opt =
          c.m <= 18 ? bench::estimateOpt(universe)
                    : bench::OptEstimate{seq.profit, false};

      table.row()
          .cell(c.n)
          .cell(c.m)
          .cell(c.r)
          .cell(opt.exact ? formatDouble(opt.lowerBound / seq.profit, 3)
                          : std::string("-"))
          .cell(opt.exact ? "yes" : "no")
          .cell(seq.dualUpperBound / seq.profit, 3)
          .cell(seq.certifiedBound, 1)
          .cell(seq.iterations)
          .cell(universe.numInstances())
          .cell(seq.profit, 1)
          .cell(dist.profit, 1);
    }
  }
  table.print(std::cout);
  return 0;
}
