// Experiment E4 — round complexity (Theorem 5.3, Lemma 5.1).
//
// The paper bounds the communication rounds by
//   O(T_MIS * log n * log(1/eps) * log(pmax/pmin)).
// Each sub-table sweeps ONE factor with the others pinned and reports the
// measured epochs (= layering groups ~ log n), stages per epoch
// (~ log(1/eps)), max steps per stage (~ log(pmax/pmin), Lemma 5.1) and
// Luby rounds. Reproduction = each measured column grows linearly in its
// own log-factor and is flat in the others.
#include <iostream>

#include "algo/solvers.hpp"
#include "bench_common.hpp"
#include "gen/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

SolveResult<TreeAssignment> solve(std::int32_t n, std::int32_t m,
                                  double epsilon, double pmax,
                                  std::uint64_t seed) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = n;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = m;
  cfg.demands.accessProbability = 0.7;
  cfg.demands.profitMax = pmax;
  const TreeProblem problem = makeTreeScenario(cfg);
  SolverOptions options;
  options.epsilon = epsilon;
  options.seed = seed + 1;
  return solveUnit(problem, options);
}

void emitRow(Table& table, const std::string& sweep, const std::string& value,
             const SolveResult<TreeAssignment>& r) {
  table.row()
      .cell(sweep)
      .cell(value)
      .cell(r.stats.epochs)
      .cell(r.stats.stages / std::max(1, r.stats.epochs))
      .cell(r.stats.maxStepsInStage)
      .cell(r.stats.steps)
      .cell(r.stats.misRounds)
      .cell(r.stats.lambdaMeasured, 4);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 21, "RNG seed");
  if (!flags.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));

  bench::banner(
      "E4",
      "Theorem 5.3 round bound O(T_MIS log n log(1/eps) log(pmax/pmin)); "
      "Lemma 5.1: steps per stage <= O(log(pmax/pmin))",
      "epochs grow ~ log n in sweep 1 and stay flat elsewhere; stages/epoch "
      "grow ~ log(1/eps) in sweep 2; max steps/stage grows ~ log(pmax/pmin) "
      "in sweep 3 and stays small elsewhere");

  Table table({"sweep", "value", "epochs", "stages/epoch", "max steps/stage",
               "total steps", "MIS rounds", "lambda"});

  // Sweep 1: n doubling; eps = 0.1, pmax/pmin = 8.
  for (std::int32_t n = 32; n <= 512; n *= 2) {
    emitRow(table, "n", std::to_string(n),
            solve(n, 2 * n, 0.1, 8.0, seed + static_cast<std::uint64_t>(n)));
  }
  // Sweep 2: eps halving; n = 64, pmax/pmin = 8.
  for (const double eps : {0.4, 0.2, 0.1, 0.05, 0.025}) {
    emitRow(table, "epsilon", formatDouble(eps, 3),
            solve(64, 128, eps, 8.0, seed + 1000));
  }
  // Sweep 3: profit spread doubling; n = 64, eps = 0.1.
  for (const double pmax : {2.0, 8.0, 32.0, 128.0, 512.0}) {
    emitRow(table, "pmax/pmin", formatDouble(pmax, 0),
            solve(64, 128, 0.1, pmax, seed + 2000));
  }
  table.print(std::cout);
  return 0;
}
