// Experiment E10 — ablations of the paper's two technical contributions.
//
// (a) Schedule: staged (lambda = 1-eps, this paper) vs threshold
//     (lambda = 1/(5+eps), Panconesi-Sozio) on identical tree instances
//     with the identical ideal layering — isolates contribution #2.
// (b) Decomposition behind the layering: ideal (theta = 2 -> Delta <= 6)
//     vs balancing (theta up to lg n -> larger Delta) vs root-fixing
//     (Delta <= 4 but depth/groups up to n) — isolates contribution #1;
//     the root-fixing column shows WHY depth matters: its epoch count
//     explodes, which is exactly the round blow-up the ideal
//     decomposition removes.
#include <iostream>

#include "algo/solvers.hpp"
#include "bench_common.hpp"
#include "gen/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

TreeProblem makeProblem(std::uint64_t seed, std::int32_t n) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = n;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 2 * n;
  cfg.demands.accessProbability = 0.7;
  return makeTreeScenario(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("n", 96, "vertices per tree");
  flags.intFlag("seeds", 3, "instances per variant");
  if (!flags.parse(argc, argv)) return 0;
  const auto n = static_cast<std::int32_t>(flags.getInt("n"));
  const auto seeds = flags.getInt("seeds");

  bench::banner(
      "E10",
      "ablations: staged-vs-threshold schedule (paper contribution 2) and "
      "ideal-vs-balancing-vs-root-fixing decomposition (contribution 1)",
      "(a) staged lambda ~0.9 vs threshold ~0.196 -> ~4.6x tighter "
      "certificate at equal Delta; (b) ideal keeps Delta <= 6 with few "
      "epochs; balancing inflates Delta; root-fixing keeps Delta small but "
      "explodes the epoch count (the depth/theta trade-off of §4.2)");

  Table table({"variant", "seed", "Delta", "epochs", "lambda", "certified",
               "profit", "vs dual UB", "MIS rounds"});

  struct Variant {
    std::string name;
    SchedulePolicy schedule;
    DecompositionKind decomposition;
  };
  const Variant variants[] = {
      {"staged+ideal (paper)", SchedulePolicy::Staged,
       DecompositionKind::Ideal},
      {"threshold+ideal (PS schedule)", SchedulePolicy::Threshold,
       DecompositionKind::Ideal},
      {"staged+balancing", SchedulePolicy::Staged,
       DecompositionKind::Balancing},
      {"staged+root-fixing", SchedulePolicy::Staged,
       DecompositionKind::RootFixing},
  };

  for (const Variant& v : variants) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      const TreeProblem problem =
          makeProblem(static_cast<std::uint64_t>(s) * 2654435761 + 81, n);
      SolverOptions options;
      options.seed = static_cast<std::uint64_t>(s) + 7;
      options.schedule = v.schedule;
      options.decomposition = v.decomposition;
      const auto r = solveUnit(problem, options);
      table.row()
          .cell(v.name)
          .cell(s)
          .cell(r.stats.delta)
          .cell(r.stats.epochs)
          .cell(r.stats.lambdaMeasured, 4)
          .cell(r.certifiedBound, 2)
          .cell(r.profit, 1)
          .cell(r.dualUpperBound / r.profit, 3)
          .cell(r.stats.misRounds);
    }
  }
  table.print(std::cout);
  return 0;
}
