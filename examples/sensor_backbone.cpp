// Circuit reservation on redundant backbone trees — the paper's
// tree-network setting (§2) on a field-deployment story.
//
// A sensor field has 60 nodes and three redundant spanning trees (built by
// different radio channels). Gateways request exclusive end-to-end
// circuits between node pairs; each gateway only speaks some of the
// channels. We run the paper's distributed (7+eps) algorithm, the
// Appendix-A sequential 3-approximation, and profit-greedy, and show the
// ideal tree decomposition underpinning the distributed run.
#include <iostream>

#include "algo/sequential_tree.hpp"
#include "algo/solvers.hpp"
#include "core/universe.hpp"
#include "decomp/tree_decomposition.hpp"
#include "exact/greedy.hpp"
#include "gen/scenario.hpp"
#include "util/table.hpp"

using namespace treesched;

int main() {
  TreeScenarioConfig cfg;
  cfg.seed = 4242;
  cfg.numVertices = 60;
  cfg.numNetworks = 3;
  cfg.shape = TreeShape::UniformRandom;
  cfg.demands.numDemands = 90;
  cfg.demands.profitMin = 1.0;
  cfg.demands.profitMax = 10.0;
  cfg.demands.accessProbability = 0.6;  // gateways speak ~2 of 3 channels
  const TreeProblem field = makeTreeScenario(cfg);

  std::cout << "field: " << field.numVertices << " nodes, "
            << field.numNetworks() << " backbone trees, "
            << field.numDemands() << " circuit requests\n\n";

  // The decomposition driving the layering (paper Lemma 4.1): depth
  // O(log n), pivot size <= 2 on every backbone tree.
  Table decompTable({"backbone", "ideal depth", "bound 2lg(n)+1", "pivot"});
  for (const TreeNetwork& t : field.networks) {
    const TreeDecomposition h = idealDecomposition(t);
    std::int32_t lg = 0;
    while ((1 << lg) < field.numVertices) ++lg;
    decompTable.row()
        .cell(t.id())
        .cell(h.maxDepth())
        .cell(2 * lg + 1)
        .cell(pivotSize(t, h));
  }
  decompTable.print(std::cout);
  std::cout << "\n";

  SolverOptions options;
  options.seed = 1;
  const auto dist = solveUnit(field, options);
  const SequentialTreeResult seq = solveSequentialTree(field);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(field);
  const GreedyResult greedy = greedyByProfit(universe);

  Table table({"algorithm", "profit", "circuits", "worst-case bound",
               "certified >= OPT/"});
  table.row()
      .cell("distributed staged (Thm 5.3)")
      .cell(dist.profit, 1)
      .cell(dist.assignments.size())
      .cell(dist.certifiedBound, 2)
      .cell(dist.dualUpperBound / dist.profit, 2);
  table.row()
      .cell("sequential (Appendix A)")
      .cell(seq.profit, 1)
      .cell(seq.assignments.size())
      .cell(seq.certifiedBound, 2)
      .cell(seq.dualUpperBound / seq.profit, 2);
  table.row()
      .cell("profit-greedy")
      .cell(greedy.profit, 1)
      .cell(greedy.solution.instances.size())
      .cell("none")
      .cell("-");
  table.print(std::cout);

  std::cout << "\ndistributed run: " << dist.stats.epochs << " epochs x "
            << dist.stats.stages / std::max(1, dist.stats.epochs)
            << " stages, " << dist.stats.steps << " MIS steps, "
            << dist.stats.misRounds << " Luby rounds\n";
  return 0;
}
