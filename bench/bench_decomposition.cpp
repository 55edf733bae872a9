// Experiment E1 — tree-decomposition parameters (paper §4.2, Lemma 4.1).
//
// Regenerates the paper's decomposition trade-off as a table: root-fixing
// (theta = 1, depth up to n), balancing (depth <= ceil(lg n)+1, theta up
// to the depth) and the ideal decomposition (depth <= 2 ceil(lg n)+1,
// theta <= 2) across tree shapes and sizes. The Lemma 4.1 bounds are sharp
// pass/fail: the "ok" column marks depth <= 2*ceil(lg n)+1 AND theta <= 2.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "decomp/tree_decomposition.hpp"
#include "gen/tree_gen.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

std::int32_t ceilLog2(std::int32_t n) {
  std::int32_t k = 0;
  while ((1 << k) < n) ++k;
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("max-n", 4096, "largest tree size in the sweep");
  flags.intFlag("seed", 1, "base RNG seed");
  if (!flags.parse(argc, argv)) return 0;

  bench::banner(
      "E1",
      "Lemma 4.1: ideal tree decomposition has depth <= 2*ceil(lg n)+1 and "
      "pivot size theta <= 2; root-fixing has theta = 1 (deep); balancing is "
      "shallow but theta grows (paper §4.2)",
      "every 'ideal ok' cell true; root-fixing theta always 1; balancing "
      "theta exceeding 2 on some shapes (why the ideal construction exists)");

  Table table({"shape", "n", "rf depth", "rf theta", "bal depth", "bal theta",
               "ideal depth", "ideal theta", "ideal bound", "ideal ok"});
  const auto maxN = static_cast<std::int32_t>(flags.getInt("max-n"));
  Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")));
  for (const TreeShape shape :
       {TreeShape::UniformRandom, TreeShape::Path, TreeShape::Caterpillar,
        TreeShape::Star, TreeShape::BalancedBinary}) {
    for (std::int32_t n = 16; n <= maxN; n *= 4) {
      Rng treeRng = rng.fork(static_cast<std::uint64_t>(n) * 131 +
                             static_cast<std::uint64_t>(shape));
      const TreeNetwork t = generateTree(shape, 0, n, treeRng);
      const TreeDecomposition rf = rootFixingDecomposition(t);
      const TreeDecomposition bal = balancingDecomposition(t);
      const TreeDecomposition ideal = idealDecomposition(t);
      const std::int32_t bound = 2 * ceilLog2(n) + 1;
      const std::int32_t idealTheta = pivotSize(t, ideal);
      table.row()
          .cell(treeShapeName(shape))
          .cell(n)
          .cell(rf.maxDepth())
          .cell(pivotSize(t, rf))
          .cell(bal.maxDepth())
          .cell(pivotSize(t, bal))
          .cell(ideal.maxDepth())
          .cell(idealTheta)
          .cell(bound)
          .cell(ideal.maxDepth() <= bound && idealTheta <= 2 ? "yes" : "NO");
    }
  }
  table.print(std::cout);
  return 0;
}
