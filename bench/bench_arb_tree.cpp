// Experiment E5 — arbitrary heights on trees (Theorem 6.3, Lemma 6.2).
//
// Mixed-height workloads: measures the combined solution against the dual
// certificate (and exact OPT on small instances); sweeps hmin to show the
// 1/hmin factor in the narrow stage count; reports the wide/narrow split
// the combine step chooses from.
#include <iostream>

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
      "E5",
      "Theorem 6.3: (80+eps)-approximation for arbitrary heights via wide "
      "(7+eps) + narrow (73+eps, Lemma 6.2) with per-network combine; "
      "narrow stage count scales with 1/hmin",
      "'vs OPT'/'vs dual UB' <= certified 80/(1-eps) everywhere (typically "
      "~1-3x); 'narrow stages' roughly doubles when hmin halves");

  Table table({"n", "m", "hmin", "vs OPT", "OPT exact", "vs dual UB",
               "profit", "wide part", "narrow part", "narrow stages"});

  struct Config {
    std::int32_t n, m;
    double hmin;
  };
  const Config configs[] = {{10, 8, 0.25},  {16, 14, 0.25}, {48, 96, 0.5},
                            {48, 96, 0.25}, {48, 96, 0.125}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      TreeScenarioConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(s) * 104729 + 31;
      cfg.numVertices = c.n;
      cfg.numNetworks = 2;
      cfg.demands.numDemands = c.m;
      cfg.demands.heights = HeightMode::Mixed;
      cfg.demands.hmin = c.hmin;
      cfg.demands.accessProbability = 0.7;
      const TreeProblem problem = makeTreeScenario(cfg);

      SolverOptions options;
      options.seed = cfg.seed + 1;
      options.hmin = c.hmin;
      const auto result = solveArbitrary(problem, options);

      InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
      const bench::OptEstimate opt =
          c.m <= 16 ? bench::estimateOpt(universe)
                    : bench::OptEstimate{result.profit, false};

      const std::int32_t narrowStages =
          result.narrowStats
              ? result.narrowStats->stages /
                    std::max(1, result.narrowStats->epochs)
              : 0;
      table.row()
          .cell(c.n)
          .cell(c.m)
          .cell(c.hmin, 3)
          .cell(opt.exact && result.profit > 0
                    ? formatDouble(opt.lowerBound / result.profit, 3)
                    : std::string("-"))
          .cell(opt.exact ? "yes" : "no")
          .cell(result.profit > 0
                    ? formatDouble(result.dualUpperBound / result.profit, 3)
                    : std::string("-"))
          .cell(result.profit, 1)
          .cell(result.wideProfit, 1)
          .cell(result.narrowProfit, 1)
          .cell(narrowStages);
    }
  }
  table.print(std::cout);
  return 0;
}
