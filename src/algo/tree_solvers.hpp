// Distributed solvers for tree-networks (paper §5 and §6).
//
//  * solveUnitTree       — Theorem 5.3: (7+eps)-approximation for the unit
//    height case; Delta = 6 via the ideal decomposition, staged slackness
//    lambda = 1-eps.
//  * solveArbitraryTree  — Theorem 6.3: (80+eps)-approximation for
//    arbitrary heights: the unit-height algorithm on the wide instances
//    (h > 1/2), the narrow-rule framework on the narrow instances
//    (h <= 1/2, Lemma 6.2: 73+eps), combined per network by taking the
//    more profitable set.
//
// These functions run the *centralized reference engine* with exact round
// accounting; src/dist/ executes the same algorithm over simulated message
// passing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "algo/assignments.hpp"
#include "core/tree_problem.hpp"
#include "decomp/tree_decomposition.hpp"
#include "framework/two_phase.hpp"

namespace treesched {

/// Options shared by the distributed solvers.
struct SolverOptions {
  double epsilon = 0.1;  ///< approximation slack (lambda = 1-eps staged)
  std::uint64_t seed = 1;
  /// Staged = this paper; Threshold = the Panconesi–Sozio schedule with
  /// lambda = 1/(5+eps) (used as the published baseline on lines and as an
  /// ablation on trees).
  SchedulePolicy schedule = SchedulePolicy::Staged;
  /// Tree decomposition behind the layering (trees only). Ideal gives the
  /// paper's Delta = 6; Balancing/RootFixing are ablations.
  DecompositionKind decomposition = DecompositionKind::Ideal;
  std::int32_t misRoundBudget = 0;  ///< <= 0: run Luby to completion
  bool fixedSchedule = false;       ///< paper's fixed global tuple schedule
  std::int32_t stepsPerStage = 0;   ///< 0 = derive from pmax/pmin
  double hmin = 0;                  ///< 0 = derive from the input heights
};

struct TreeSolveResult {
  std::vector<TreeAssignment> assignments;
  double profit = 0;
  /// Certified upper bound on OPT: val(alpha,beta)/lambda by weak duality.
  double dualUpperBound = 0;
  /// Worst-case factor guaranteed by the run's (Delta, lambda).
  double certifiedBound = 0;
  TwoPhaseStats stats;
};

/// Theorem 5.3. Requires a unit-height problem.
TreeSolveResult solveUnitTree(const TreeProblem& problem,
                              const SolverOptions& options = {});

/// Result of the arbitrary-height solver, with the two sub-runs exposed.
struct ArbitraryTreeResult {
  std::vector<TreeAssignment> assignments;
  double profit = 0;
  double dualUpperBound = 0;  ///< UB(wide) + UB(narrow) >= OPT
  double certifiedBound = 0;
  std::optional<TwoPhaseStats> wideStats;
  std::optional<TwoPhaseStats> narrowStats;
  double wideProfit = 0;
  double narrowProfit = 0;
};

/// Theorem 6.3. Accepts any heights in (0, 1].
ArbitraryTreeResult solveArbitraryTree(const TreeProblem& problem,
                                       const SolverOptions& options = {});

}  // namespace treesched
