#include "algo/line_solvers.hpp"

#include <algorithm>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "util/check.hpp"

namespace treesched {

namespace {

std::vector<LineAssignment> toAssignments(const InstanceUniverse& universe,
                                          const Solution& solution) {
  std::vector<LineAssignment> result;
  result.reserve(solution.instances.size());
  for (const InstanceId i : solution.instances) {
    const InstanceRecord& rec = universe.instance(i);
    result.push_back({rec.demand, rec.network, rec.u});
  }
  std::sort(result.begin(), result.end(),
            [](const LineAssignment& a, const LineAssignment& b) {
              return a.demand < b.demand;
            });
  return result;
}

LineProblem subProblem(const LineProblem& problem,
                       const std::vector<DemandId>& keep) {
  LineProblem sub;
  sub.numSlots = problem.numSlots;
  sub.numResources = problem.numResources;
  sub.demands.reserve(keep.size());
  sub.access.reserve(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    WindowDemand d = problem.demands[static_cast<std::size_t>(keep[i])];
    d.id = static_cast<DemandId>(i);
    sub.demands.push_back(d);
    sub.access.push_back(problem.access[static_cast<std::size_t>(keep[i])]);
  }
  return sub;
}

LineSolveResult runLineFramework(const LineProblem& problem,
                                 const SolverOptions& options, RaiseRule rule) {
  InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  universe.buildConflicts();
  const Layering layering = buildLineLayering(universe);

  double derivedHmin = 1.0;
  for (const WindowDemand& d : problem.demands) {
    derivedHmin = std::min(derivedHmin, d.height);
  }

  FrameworkConfig cfg;
  cfg.epsilon = options.epsilon;
  cfg.raise = rule;
  cfg.schedule = options.schedule;
  cfg.hmin = options.hmin > 0 ? options.hmin : derivedHmin;
  cfg.seed = options.seed;
  cfg.misRoundBudget = options.misRoundBudget;
  cfg.fixedSchedule = options.fixedSchedule;
  cfg.stepsPerStage = options.stepsPerStage;

  const TwoPhaseResult run = runTwoPhase(universe, layering, cfg);

  LineSolveResult result;
  result.assignments = toAssignments(universe, run.solution);
  result.profit = run.profit;
  result.dualUpperBound = run.dualUpperBound;
  result.certifiedBound =
      approximationBound(rule, run.stats.delta, run.stats.lambdaTarget);
  result.stats = run.stats;

  const std::string err = checkAssignments(problem, result.assignments);
  checkThat(err.empty(), "line solver produced feasible assignments: " + err,
            __FILE__, __LINE__);
  return result;
}

}  // namespace

LineSolveResult solveUnitLine(const LineProblem& problem,
                              const SolverOptions& options) {
  checkThat(problem.isUnitHeight(), "solveUnitLine requires unit heights",
            __FILE__, __LINE__);
  return runLineFramework(problem, options, RaiseRule::Unit);
}

ArbitraryLineResult solveArbitraryLine(const LineProblem& problem,
                                       const SolverOptions& options) {
  problem.validate();
  std::vector<DemandId> wide;
  std::vector<DemandId> narrow;
  for (const WindowDemand& d : problem.demands) {
    (isNarrow(d.height) ? narrow : wide).push_back(d.id);
  }

  ArbitraryLineResult result;
  std::vector<LineAssignment> wideAssign;
  std::vector<LineAssignment> narrowAssign;

  if (!wide.empty()) {
    const LineProblem sub = subProblem(problem, wide);
    LineSolveResult run = runLineFramework(sub, options, RaiseRule::Unit);
    for (LineAssignment a : run.assignments) {
      a.demand = wide[static_cast<std::size_t>(a.demand)];
      wideAssign.push_back(a);
    }
    result.wideStats = run.stats;
    result.dualUpperBound += run.dualUpperBound;
    result.wideProfit = run.profit;
  }
  if (!narrow.empty()) {
    const LineProblem sub = subProblem(problem, narrow);
    LineSolveResult run = runLineFramework(sub, options, RaiseRule::Narrow);
    for (LineAssignment a : run.assignments) {
      a.demand = narrow[static_cast<std::size_t>(a.demand)];
      narrowAssign.push_back(a);
    }
    result.narrowStats = run.stats;
    result.dualUpperBound += run.dualUpperBound;
    result.narrowProfit = run.profit;
  }

  // Per-resource combine (same argument as the tree case, Theorem 6.3).
  std::vector<double> wideByRes(static_cast<std::size_t>(problem.numResources),
                                0.0);
  std::vector<double> narrowByRes(
      static_cast<std::size_t>(problem.numResources), 0.0);
  for (const LineAssignment& a : wideAssign) {
    wideByRes[static_cast<std::size_t>(a.resource)] +=
        problem.demands[static_cast<std::size_t>(a.demand)].profit;
  }
  for (const LineAssignment& a : narrowAssign) {
    narrowByRes[static_cast<std::size_t>(a.resource)] +=
        problem.demands[static_cast<std::size_t>(a.demand)].profit;
  }
  for (const LineAssignment& a : wideAssign) {
    if (wideByRes[static_cast<std::size_t>(a.resource)] >=
        narrowByRes[static_cast<std::size_t>(a.resource)]) {
      result.assignments.push_back(a);
    }
  }
  for (const LineAssignment& a : narrowAssign) {
    if (wideByRes[static_cast<std::size_t>(a.resource)] <
        narrowByRes[static_cast<std::size_t>(a.resource)]) {
      result.assignments.push_back(a);
    }
  }
  result.profit = assignmentProfit(problem, result.assignments);

  // p(Opt) <= 4/(1-eps) p(S1) + 19/(1-eps) p(S2) <= 23/(1-eps) p(S)
  // for the staged schedule (Theorem 7.2).
  const double lambda = options.schedule == SchedulePolicy::Staged
                            ? 1.0 - options.epsilon
                            : 1.0 / (5.0 + options.epsilon);
  result.certifiedBound = approximationBound(RaiseRule::Unit, 3, lambda) +
                          approximationBound(RaiseRule::Narrow, 3, lambda);

  const std::string err = checkAssignments(problem, result.assignments);
  checkThat(err.empty(), "combined line solution feasible: " + err, __FILE__,
            __LINE__);
  return result;
}

LineSolveResult solvePanconesiSozioUnitLine(const LineProblem& problem,
                                            SolverOptions options) {
  options.schedule = SchedulePolicy::Threshold;
  return solveUnitLine(problem, options);
}

ArbitraryLineResult solvePanconesiSozioArbitraryLine(const LineProblem& problem,
                                                     SolverOptions options) {
  options.schedule = SchedulePolicy::Threshold;
  return solveArbitraryLine(problem, options);
}

}  // namespace treesched
