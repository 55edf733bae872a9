// Experiment E9 — Luby's MIS round complexity [Luby 1986].
//
// T_MIS is the multiplier in every round bound of the paper. The
// randomized algorithm finishes in O(log N) rounds w.h.p.; this harness
// measures rounds on conflict graphs of growing size and reports
// rounds / lg N, which must stay roughly constant.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/universe.hpp"
#include "framework/mis.hpp"
#include "gen/scenario.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace treesched;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seeds", 8, "MIS seeds per graph");
  if (!flags.parse(argc, argv)) return 0;
  const auto seeds = flags.getInt("seeds");

  bench::banner(
      "E9",
      "Luby's randomized MIS finishes in O(log N) rounds w.h.p. [14]; the "
      "paper's budgets assume T_MIS = O(log N)",
      "'rounds/lgN' stays roughly constant (~0.5-1.5) as N grows 64x; max "
      "rounds well under the protocol's 4*lg N + 8 budget");

  Table table({"N (instances)", "max degree", "rounds mean", "rounds max",
               "rounds/lgN", "budget (4lgN+8)"});

  for (std::int32_t m = 64; m <= 4096; m *= 4) {
    TreeScenarioConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(m) + 71;
    cfg.numVertices = 48;
    cfg.numNetworks = 3;
    cfg.demands.numDemands = m;
    cfg.demands.accessProbability = 0.7;
    const TreeProblem problem = makeTreeScenario(cfg);
    InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
    universe.buildConflicts();

    std::vector<InstanceId> active(
        static_cast<std::size_t>(universe.numInstances()));
    for (InstanceId i = 0; i < universe.numInstances(); ++i) {
      active[static_cast<std::size_t>(i)] = i;
    }
    Summary rounds;
    for (std::int64_t s = 0; s < seeds; ++s) {
      const MisResult mis =
          lubyMis(universe, active, static_cast<std::uint64_t>(s) * 31 + 5);
      rounds.add(static_cast<double>(mis.rounds));
    }
    const double lg = std::log2(static_cast<double>(universe.numInstances()));
    table.row()
        .cell(universe.numInstances())
        .cell(universe.maxConflictDegree())
        .cell(rounds.mean(), 2)
        .cell(static_cast<std::int64_t>(rounds.max()))
        .cell(rounds.mean() / lg, 3)
        .cell(static_cast<std::int64_t>(4 * std::ceil(lg) + 8));
  }
  table.print(std::cout);
  return 0;
}
