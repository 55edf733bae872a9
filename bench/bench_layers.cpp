// Experiment E2 — layered decompositions (paper Lemmas 4.2/4.3 and §7).
//
// Measures the critical-set size Delta and the number of groups for the
// tree layering under each decomposition kind, and for the line layering,
// and exhaustively verifies the interference property on each instance.
#include <iostream>

#include "bench_common.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "gen/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 1, "base RNG seed");
  if (!flags.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));

  bench::banner(
      "E2",
      "Lemma 4.3: tree layering from the ideal decomposition has Delta <= 6 "
      "and O(log n) groups; §7: line layering has Delta <= 3 and "
      "ceil(lg(Lmax/Lmin)) groups; both satisfy the interference property",
      "Delta columns within bounds; every 'interference' cell 'holds'");

  Table table({"universe", "decomposition", "instances", "groups", "Delta",
               "Delta bound", "interference"});

  for (std::int32_t n : {32, 64, 128}) {
    TreeScenarioConfig cfg;
    cfg.seed = seed + static_cast<std::uint64_t>(n);
    cfg.numVertices = n;
    cfg.numNetworks = 3;
    cfg.demands.numDemands = 2 * n;
    cfg.demands.accessProbability = 0.6;
    const TreeProblem problem = makeTreeScenario(cfg);
    const InstanceUniverse universe =
        InstanceUniverse::fromTreeProblem(problem);
    for (const DecompositionKind kind :
         {DecompositionKind::Ideal, DecompositionKind::Balancing,
          DecompositionKind::RootFixing}) {
      const TreeLayeringResult result =
          buildTreeLayering(problem, universe, kind);
      const std::string bound = kind == DecompositionKind::Ideal ? "6"
                                : kind == DecompositionKind::RootFixing
                                    ? "4"
                                    : "2*(theta+1)";
      table.row()
          .cell("tree n=" + std::to_string(n))
          .cell(decompositionKindName(kind))
          .cell(universe.numInstances())
          .cell(result.layering.numGroups)
          .cell(result.layering.maxCriticalSize)
          .cell(bound)
          .cell(checkLayering(universe, result.layering).empty() ? "holds"
                                                                 : "VIOLATED");
    }
  }

  for (std::int32_t slots : {64, 256}) {
    for (double slack : {0.0, 1.0}) {
      LineScenarioConfig cfg;
      cfg.seed = seed + static_cast<std::uint64_t>(slots) + 7;
      cfg.numSlots = slots;
      cfg.numResources = 3;
      cfg.demands.numDemands = slots;
      cfg.demands.processingMax = slots / 8;
      cfg.demands.windowSlack = slack;
      cfg.demands.accessProbability = 0.6;
      const LineProblem problem = makeLineScenario(cfg);
      const InstanceUniverse universe =
          InstanceUniverse::fromLineProblem(problem);
      const Layering layering = buildLineLayering(universe);
      table.row()
          .cell("line slots=" + std::to_string(slots) + " slack=" +
                formatDouble(slack, 1))
          .cell("length-buckets")
          .cell(universe.numInstances())
          .cell(layering.numGroups)
          .cell(layering.maxCriticalSize)
          .cell("3")
          .cell(checkLayering(universe, layering).empty() ? "holds"
                                                          : "VIOLATED");
    }
  }

  table.print(std::cout);
  return 0;
}
