#include "algo/solvers.hpp"

#include <algorithm>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "util/check.hpp"

namespace treesched {

namespace {

/// What differs between tree and line networks; everything else below is
/// written once for both.
template <class Problem>
struct NetworkKind;

template <>
struct NetworkKind<TreeProblem> {
  using Assignment = TreeAssignment;
  static constexpr std::int32_t kTheoremDelta = 6;  // Theorem 6.3
  static InstanceUniverse universe(const TreeProblem& problem) {
    return InstanceUniverse::fromTreeProblem(problem);
  }
  static Layering layering(const TreeProblem& problem,
                           const InstanceUniverse& universe,
                           const SolverOptions& options) {
    return buildTreeLayering(problem, universe, options.decomposition).layering;
  }
  static Assignment assignment(const InstanceRecord& rec) {
    return {rec.demand, rec.network};
  }
  static std::int32_t network(const Assignment& a) { return a.network; }
  static std::int32_t numNetworks(const TreeProblem& problem) {
    return problem.numNetworks();
  }
};

template <>
struct NetworkKind<LineProblem> {
  using Assignment = LineAssignment;
  static constexpr std::int32_t kTheoremDelta = 3;  // Theorem 7.2
  static InstanceUniverse universe(const LineProblem& problem) {
    return InstanceUniverse::fromLineProblem(problem);
  }
  static Layering layering(const LineProblem& /*problem*/,
                           const InstanceUniverse& universe,
                           const SolverOptions& /*options*/) {
    return buildLineLayering(universe);
  }
  static Assignment assignment(const InstanceRecord& rec) {
    return {rec.demand, rec.network, rec.u};
  }
  static std::int32_t network(const Assignment& a) { return a.resource; }
  static std::int32_t numNetworks(const LineProblem& problem) {
    return problem.numResources;
  }
};

template <class Problem>
using AssignmentOf = typename NetworkKind<Problem>::Assignment;

FrameworkConfig toFrameworkConfig(const SolverOptions& options, RaiseRule rule,
                                  double derivedHmin) {
  FrameworkConfig cfg;
  cfg.epsilon = options.epsilon;
  cfg.raise = rule;
  cfg.schedule = options.schedule;
  cfg.hmin = options.hmin > 0 ? options.hmin : derivedHmin;
  cfg.seed = options.seed;
  cfg.misRoundBudget = options.misRoundBudget;
  cfg.fixedSchedule = options.fixedSchedule;
  cfg.stepsPerStage = options.stepsPerStage;
  return cfg;
}

/// `problem` restricted to the demands in `keep`, renumbered 0.. in the
/// order of `keep`.
template <class Problem>
Problem restrictTo(const Problem& problem, const std::vector<DemandId>& keep) {
  Problem sub = problem;  // keeps the network shape
  sub.demands.clear();
  sub.access.clear();
  for (std::size_t i = 0; i < keep.size(); ++i) {
    sub.demands.push_back(problem.demands[static_cast<std::size_t>(keep[i])]);
    sub.demands.back().id = static_cast<DemandId>(i);
    sub.access.push_back(problem.access[static_cast<std::size_t>(keep[i])]);
  }
  return sub;
}

template <class Problem>
SolveResult<AssignmentOf<Problem>> runFramework(const Problem& problem,
                                                const SolverOptions& options,
                                                RaiseRule rule) {
  using Kind = NetworkKind<Problem>;
  InstanceUniverse universe = Kind::universe(problem);
  universe.buildConflicts();
  const Layering layering = Kind::layering(problem, universe, options);

  double derivedHmin = 1.0;
  for (const auto& d : problem.demands) {
    derivedHmin = std::min(derivedHmin, d.height);
  }
  const FrameworkConfig cfg = toFrameworkConfig(options, rule, derivedHmin);
  const TwoPhaseResult run = runTwoPhase(universe, layering, cfg);

  SolveResult<AssignmentOf<Problem>> result;
  result.assignments.reserve(run.solution.instances.size());
  for (const InstanceId i : run.solution.instances) {
    result.assignments.push_back(Kind::assignment(universe.instance(i)));
  }
  std::sort(result.assignments.begin(), result.assignments.end(),
            [](const auto& a, const auto& b) { return a.demand < b.demand; });
  result.profit = run.profit;
  result.dualUpperBound = run.dualUpperBound;
  result.certifiedBound =
      approximationBound(rule, run.stats.delta, run.stats.lambdaTarget);
  result.stats = run.stats;

  const std::string err = checkAssignments(problem, result.assignments);
  checkThat(err.empty(), "solver produced feasible assignments: " + err,
            __FILE__, __LINE__);
  return result;
}

template <class Problem>
SolveResult<AssignmentOf<Problem>> solveUnitImpl(const Problem& problem,
                                                 const SolverOptions& options) {
  checkThat(problem.isUnitHeight(), "solveUnit requires unit heights",
            __FILE__, __LINE__);
  return runFramework(problem, options, RaiseRule::Unit);
}

template <class Problem>
ArbitrarySolveResult<AssignmentOf<Problem>> solveArbitraryImpl(
    const Problem& problem, const SolverOptions& options) {
  using Kind = NetworkKind<Problem>;
  using Assignment = AssignmentOf<Problem>;
  problem.validate();

  std::vector<DemandId> wideIds;
  std::vector<DemandId> narrowIds;
  for (const auto& d : problem.demands) {
    (isNarrow(d.height) ? narrowIds : wideIds).push_back(d.id);
  }

  ArbitrarySolveResult<Assignment> result;
  // Solves the sub-problem on `keep` and maps its assignments back to the
  // demand ids of `problem`.
  const auto solvePart = [&](const std::vector<DemandId>& keep, RaiseRule rule,
                             std::optional<TwoPhaseStats>& stats,
                             double& profit) {
    std::vector<Assignment> assigned;
    if (keep.empty()) return assigned;
    const SolveResult<Assignment> run =
        runFramework(restrictTo(problem, keep), options, rule);
    for (Assignment a : run.assignments) {
      a.demand = keep[static_cast<std::size_t>(a.demand)];
      assigned.push_back(a);
    }
    stats = run.stats;
    result.dualUpperBound += run.dualUpperBound;
    profit = run.profit;
    return assigned;
  };
  // Two overlapping wide instances can never coexist, so the unit-height
  // algorithm applies to the wide demands verbatim (§6 "Overall
  // Algorithm").
  const std::vector<Assignment> wide = solvePart(
      wideIds, RaiseRule::Unit, result.wideStats, result.wideProfit);
  const std::vector<Assignment> narrow = solvePart(
      narrowIds, RaiseRule::Narrow, result.narrowStats, result.narrowProfit);

  // Per-network combine: keep whichever of the two solutions earns more on
  // each network. Feasible because a demand is wide xor narrow and each
  // sub-solution is feasible per network on its own.
  const auto profitByNetwork = [&](const std::vector<Assignment>& set) {
    std::vector<double> byNet(
        static_cast<std::size_t>(Kind::numNetworks(problem)), 0.0);
    for (const Assignment& a : set) {
      byNet[static_cast<std::size_t>(Kind::network(a))] +=
          problem.demands[static_cast<std::size_t>(a.demand)].profit;
    }
    return byNet;
  };
  const std::vector<double> wideByNet = profitByNetwork(wide);
  const std::vector<double> narrowByNet = profitByNetwork(narrow);
  for (const Assignment& a : wide) {
    const auto net = static_cast<std::size_t>(Kind::network(a));
    if (wideByNet[net] >= narrowByNet[net]) result.assignments.push_back(a);
  }
  for (const Assignment& a : narrow) {
    const auto net = static_cast<std::size_t>(Kind::network(a));
    if (wideByNet[net] < narrowByNet[net]) result.assignments.push_back(a);
  }
  result.profit = assignmentProfit(problem, result.assignments);

  // Certified factor: p(Opt) <= p(Opt_wide) + p(Opt_narrow)
  //   <= bound(Unit, Delta_w) p(S1) + bound(Narrow, Delta_n) p(S2)
  //   <= (bound(Unit, Delta_w) + bound(Narrow, Delta_n)) p(S)
  // since p(S) >= max(p(S1), p(S2)) after the per-network combine. Each
  // Delta is the theorem's, raised to the part's measured Delta when that
  // is larger (non-ideal decompositions). Staged with the theorem's Delta
  // gives 80/(1-eps) on trees and 23/(1-eps) on lines. lambda depends on
  // the schedule alone; the plan's Delta and hmin only shape its stages.
  const StagePlan plan = makeStagePlan(options.schedule, RaiseRule::Unit,
                                       options.epsilon, 1, 1.0);
  const double lambda = plan.lambdaTarget;
  const auto delta = [](const std::optional<TwoPhaseStats>& stats) {
    return std::max(Kind::kTheoremDelta, stats ? stats->delta : 0);
  };
  result.certifiedBound =
      approximationBound(RaiseRule::Unit, delta(result.wideStats), lambda) +
      approximationBound(RaiseRule::Narrow, delta(result.narrowStats), lambda);

  const std::string err = checkAssignments(problem, result.assignments);
  checkThat(err.empty(), "combined solution feasible: " + err, __FILE__,
            __LINE__);
  return result;
}

}  // namespace

SolveResult<TreeAssignment> solveUnit(const TreeProblem& problem,
                                      const SolverOptions& options) {
  return solveUnitImpl(problem, options);
}

SolveResult<LineAssignment> solveUnit(const LineProblem& problem,
                                      const SolverOptions& options) {
  return solveUnitImpl(problem, options);
}

ArbitrarySolveResult<TreeAssignment> solveArbitrary(
    const TreeProblem& problem, const SolverOptions& options) {
  return solveArbitraryImpl(problem, options);
}

ArbitrarySolveResult<LineAssignment> solveArbitrary(
    const LineProblem& problem, const SolverOptions& options) {
  return solveArbitraryImpl(problem, options);
}

}  // namespace treesched
