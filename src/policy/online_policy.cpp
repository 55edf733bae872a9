#include "policy/online_policy.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "policy/registry.hpp"
#include "util/check.hpp"

namespace treesched {

namespace {

/// Active instances of the masked demands, ascending.
std::vector<InstanceId> activeInstancesOf(
    const InstanceUniverse& universe, const std::vector<std::uint8_t>& mask) {
  std::vector<InstanceId> ids;
  for (DemandId d = 0; d < universe.numDemands(); ++d) {
    if (mask[static_cast<std::size_t>(d)] == 0) continue;
    const auto span = universe.instancesOfDemand(d);
    ids.insert(ids.end(), span.begin(), span.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

ChurnRunResult runChurnWithScheduler(const ScenarioProblem& problem,
                                     const ChurnTrace& trace,
                                     const ChurnEngineConfig& config,
                                     const std::string& policyId) {
  if (policyId.empty() || policyId == "two_phase") {
    // The incremental engine runs over its own dynamic universe, grown
    // and garbage-collected along the trace; the static pool universe
    // below is untouched.
    checkThat(problem.treePool != nullptr || problem.linePool != nullptr,
              "scenario problem carries its pool handle", __FILE__, __LINE__);
    if (problem.treePool != nullptr) {
      DynamicUniverse universe = makeDynamicTreeUniverse(problem.treePool);
      return runChurnOverTrace(universe, trace, config);
    }
    DynamicUniverse universe = makeDynamicLineUniverse(problem.linePool);
    return runChurnOverTrace(universe, trace, config);
  }
  const InstanceUniverse& universe = problem.universe;
  const Layering& layering = problem.layering;
  const std::vector<std::vector<std::int32_t>>& access = problem.access;
  const SchedulerRegistry& registry = SchedulerRegistry::all();
  checkThat(registry.has(policyId), "known scheduler id for churn loop",
            __FILE__, __LINE__);

  ChurnRunResult result;
  const std::vector<EpochBatch> batches =
      batchTrace(trace, config.epochLength);
  result.epochs.reserve(batches.size());

  const auto numDemands = static_cast<std::size_t>(universe.numDemands());
  std::vector<std::uint8_t> mask(numDemands, 0);
  // SLA clocks (incremental.hpp semantics): epoch of the latest arrival
  // and of the first admission since (-1 while unadmitted).
  std::vector<std::int64_t> arrivalEpoch(numDemands, -1);
  std::vector<std::int64_t> admittedEpoch(numDemands, -1);
  std::int64_t latencySum = 0;
  // Unit-bucket latency histogram backing the SLA percentiles — the
  // same bucketing the incremental solver uses, so the bench's p50/p99
  // columns are comparable across scheduler ids.
  Histogram latencyHist(Histogram::unitBuckets(128));
  Tracer* tracer = config.solver.tracer;
  const bool traceEpochs = tracer != nullptr && tracer->enabled();

  Solution solution;
  double profit = 0;
  double fractionSum = 0;
  std::int64_t churnEpochs = 0;

  for (std::size_t k = 0; k < batches.size(); ++k) {
    const EpochBatch& batch = batches[k];
    const auto epochIndex = static_cast<std::int32_t>(k);
    const std::int64_t epochBegin = traceEpochs ? tracer->now() : 0;

    EpochOutcome outcome;
    outcome.epoch = epochIndex;
    outcome.protocolSeed = epochProtocolSeed(config.solver.seed, epochIndex);
    outcome.arrivals = static_cast<std::int32_t>(batch.arrivals.size());
    outcome.departures = static_cast<std::int32_t>(batch.departures.size());

    for (const DemandId d : batch.departures) {
      const auto slot = static_cast<std::size_t>(d);
      mask[slot] = 0;
      if (admittedEpoch[slot] < 0) ++result.sla.departedUnadmitted;
      arrivalEpoch[slot] = -1;
      admittedEpoch[slot] = -1;
    }
    for (const DemandId d : batch.arrivals) {
      const auto slot = static_cast<std::size_t>(d);
      mask[slot] = 1;
      arrivalEpoch[slot] = epochIndex;
      admittedEpoch[slot] = -1;
    }

    const bool churned = !batch.arrivals.empty() || !batch.departures.empty();
    if (churned) {
      const std::vector<InstanceId> active =
          activeInstancesOf(universe, mask);
      // Per-epoch seed, incremental-engine style: rebuild the scheduler
      // so every epoch's MIS priorities draw from its own keyed stream.
      DistributedOptions options =
          epochProtocolOptions(config.solver, epochIndex);
      options.ledger = config.solver.ledger;
      const std::unique_ptr<Scheduler> scheduler =
          registry.make(policyId, options);
      const ScheduleOutcome solved = scheduler->solve(
          {universe, layering, access, active, nullptr});

      solution = solved.solution;
      profit = solved.profit;
      outcome.dualObjective = 0;
      outcome.dualUpperBound = solved.dualUpperBound;
      outcome.lambdaMeasured = solved.lambdaMeasured;
      outcome.raises = solved.raises;
      outcome.rounds = solved.rounds;
      outcome.messages = solved.messages;
      outcome.activeInstances = static_cast<std::int64_t>(active.size());
      outcome.affectedInstances = outcome.activeInstances;
      outcome.resolveFraction = outcome.activeInstances > 0 ? 1.0 : 0.0;
      outcome.fullResolve = true;
      fractionSum += outcome.resolveFraction;
      ++churnEpochs;
      ++result.fullResolves;
    }

    std::int32_t activeDemands = 0;
    for (const std::uint8_t alive : mask) activeDemands += alive;
    outcome.activeDemands = activeDemands;
    if (!churned) {
      outcome.activeInstances =
          result.epochs.empty() ? 0 : result.epochs.back().activeInstances;
    }
    outcome.affectedDemands =
        churned ? activeDemands : 0;  // from-scratch = whole active set
    outcome.solution = solution;
    outcome.profit = profit;

    // Admission clocks: a demand is admitted the first epoch one of its
    // instances appears in the solution since its latest arrival.
    for (const InstanceId i : solution.instances) {
      const auto d =
          static_cast<std::size_t>(universe.instance(i).demand);
      if (mask[d] != 0 && admittedEpoch[d] < 0) {
        admittedEpoch[d] = epochIndex;
        const std::int64_t latency = epochIndex - arrivalEpoch[d];
        latencySum += latency;
        latencyHist.record(static_cast<double>(latency));
        result.sla.maxLatencyEpochs =
            std::max(result.sla.maxLatencyEpochs, latency);
        ++result.sla.admittedDemands;
        ++outcome.newlyAdmittedDemands;
      }
    }

    result.totalRounds += outcome.rounds;
    result.totalMessages += outcome.messages;
    if (traceEpochs) {
      tracer->span("online_epoch", "online", 0, epochBegin,
                   {{"epoch", epochIndex},
                    {"arrivals", outcome.arrivals},
                    {"departures", outcome.departures}});
    }
    result.epochs.push_back(std::move(outcome));
  }

  result.finalSolution = solution;
  result.finalProfit = profit;
  result.finalActiveInstances = activeInstancesOf(universe, mask);
  result.meanResolveFraction =
      churnEpochs > 0 ? fractionSum / static_cast<double>(churnEpochs) : 0.0;
  if (result.sla.admittedDemands > 0) {
    result.sla.meanLatencyEpochs =
        static_cast<double>(latencySum) /
        static_cast<double>(result.sla.admittedDemands);
  }
  result.sla.p50LatencyEpochs = latencyHist.percentile(0.5);
  result.sla.p99LatencyEpochs = latencyHist.percentile(0.99);
  return result;
}

}  // namespace treesched
