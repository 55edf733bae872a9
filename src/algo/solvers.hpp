// Distributed solvers for tree-networks (paper §5, §6) and line-networks
// with windows (§7).
//
//  * solveUnit      — Theorem 5.3 on trees: (7+eps)-approximation, Delta =
//    6 via the ideal decomposition. Theorem 7.1 on lines:
//    (4+eps)-approximation, Delta = 3 via the length-based layering. Both
//    use the staged slackness lambda = 1-eps.
//  * solveArbitrary — Theorem 6.3 on trees (80+eps) and Theorem 7.2 on
//    lines (23+eps): the unit-height algorithm on the wide demands
//    (h > 1/2), the narrow-rule framework on the narrow demands
//    (h <= 1/2, Lemma 6.1), combined per network by keeping the more
//    profitable set. The two theorems are one construction; only the
//    theorem's Delta differs.
//
// SchedulePolicy::Threshold reproduces the Panconesi–Sozio baseline from
// the paper's description (§5 Remark): identical layering but the
// single-stage threshold schedule with lambda = 1/(5+eps), giving (20+eps)
// for unit-height lines. The paper's headline improvement is the measured
// gap between the two schedules (experiments E6/E7).
//
// These functions run the *centralized reference engine* with exact round
// accounting; src/dist/ executes the same algorithm over simulated message
// passing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "algo/assignments.hpp"
#include "core/line_problem.hpp"
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

/// Result of one framework run (TreeAssignment or LineAssignment).
template <class Assignment>
struct SolveResult {
  std::vector<Assignment> assignments;
  double profit = 0;
  /// Certified upper bound on OPT: val(alpha,beta)/lambda by weak duality.
  double dualUpperBound = 0;
  /// Worst-case factor guaranteed by the run's (Delta, lambda).
  double certifiedBound = 0;
  TwoPhaseStats stats;
};

/// Result of the arbitrary-height solver, with the two sub-runs exposed.
template <class Assignment>
struct ArbitrarySolveResult {
  std::vector<Assignment> assignments;
  double profit = 0;
  double dualUpperBound = 0;  ///< UB(wide) + UB(narrow) >= OPT
  /// approximationBound(Unit, Delta_w, lambda) +
  /// approximationBound(Narrow, Delta_n, lambda), where lambda is the
  /// schedule's target and each Delta is the theorem's Delta, or the
  /// part's measured Delta when that is larger.
  double certifiedBound = 0;
  std::optional<TwoPhaseStats> wideStats;
  std::optional<TwoPhaseStats> narrowStats;
  double wideProfit = 0;
  double narrowProfit = 0;
};

/// Theorems 5.3 / 7.1. Requires a unit-height problem.
SolveResult<TreeAssignment> solveUnit(const TreeProblem& problem,
                                      const SolverOptions& options = {});
SolveResult<LineAssignment> solveUnit(const LineProblem& problem,
                                      const SolverOptions& options = {});

/// Theorems 6.3 / 7.2. Accepts any heights in (0, 1].
ArbitrarySolveResult<TreeAssignment> solveArbitrary(
    const TreeProblem& problem, const SolverOptions& options = {});
ArbitrarySolveResult<LineAssignment> solveArbitrary(
    const LineProblem& problem, const SolverOptions& options = {});

}  // namespace treesched
