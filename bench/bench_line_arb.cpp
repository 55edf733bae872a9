// Experiment E7 — arbitrary heights on lines with windows (Theorem 7.2).
//
// (23+eps) via wide (4+eps) + narrow (19+eps) with per-resource combine,
// against a PS-style threshold baseline on identical inputs. PS's
// published arbitrary-height constant is (55+eps) with different raise
// details; the reconstruction here changes ONLY the schedule policy, so
// the gap isolates the staged-slackness contribution.
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
      "E7",
      "Theorem 7.2: (23+eps)-approximation for arbitrary-height "
      "lines+windows (wide 4+eps + narrow 19+eps)",
      "'ours vs UB' <= 23/(1-eps) everywhere (typically ~1-4x); ours' "
      "certified bound ~5x better than the threshold baseline; measured "
      "profit >= baseline on most rows");

  Table table({"slots", "m", "hmin", "ours", "PS-style", "OPT", "ours vs UB",
               "ours bound", "PS bound", "wide part", "narrow part"});

  struct Config {
    std::int32_t slots, m;
    double hmin;
  };
  const Config configs[] = {
      {20, 7, 0.25}, {48, 32, 0.5}, {48, 32, 0.25}, {128, 96, 0.25}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      LineScenarioConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(s) * 6700417 + 51;
      cfg.numSlots = c.slots;
      cfg.numResources = 2;
      cfg.demands.numDemands = c.m;
      cfg.demands.heights = HeightMode::Mixed;
      cfg.demands.hmin = c.hmin;
      cfg.demands.processingMax = std::max(2, c.slots / 8);
      cfg.demands.windowSlack = 0.5;
      cfg.demands.accessProbability = 0.7;
      const LineProblem problem = makeLineScenario(cfg);

      SolverOptions options;
      options.seed = cfg.seed + 1;
      options.hmin = c.hmin;
      const auto ours = solveArbitrary(problem, options);
      SolverOptions psOptions = options;
      psOptions.schedule = SchedulePolicy::Threshold;
      const auto ps = solveArbitrary(problem, psOptions);

      std::string optCell = "-";
      if (c.m <= 8) {
        InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
        const bench::OptEstimate opt = bench::estimateOpt(universe);
        if (opt.exact) optCell = formatDouble(opt.lowerBound, 1);
      }

      table.row()
          .cell(c.slots)
          .cell(c.m)
          .cell(c.hmin, 3)
          .cell(ours.profit, 1)
          .cell(ps.profit, 1)
          .cell(optCell)
          .cell(ours.profit > 0
                    ? formatDouble(ours.dualUpperBound / ours.profit, 3)
                    : std::string("-"))
          .cell(ours.certifiedBound, 2)
          .cell(ps.certifiedBound, 2)
          .cell(ours.wideProfit, 1)
          .cell(ours.narrowProfit, 1);
    }
  }
  table.print(std::cout);
  return 0;
}
