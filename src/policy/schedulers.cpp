// Built-in schedulers of the policy registry (policy/registry.hpp).
//
// The two-phase family runs the paper's LP-dual protocol — distributed
// over a Transport (a private round-synchronous bus when the context
// carries none) via runDistributedWarmStart, so the reference entry is
// bit-identical to runTwoPhase under the registry's fixed-schedule
// contract and pays real wire cost. Variant entries expose the policy
// axes: the exhaustive-Luby MIS variant, the Panconesi–Sozio threshold
// schedule (centralized engine — the distributed protocol implements
// the staged plan only) and a local-search admission post-pass; the
// raise-policy axis (§6 narrow rule) is a DistributedOptions::rule
// choice since it only runs on narrow-height universes.
//
// The baselines (greedy, greedy/local_search, emr_line_pack) are
// centralized: global knowledge, zero messages — the tournament's
// honest comparison axis.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "dist/sim_network.hpp"
#include "exact/greedy.hpp"
#include "exact/local_search.hpp"
#include "framework/two_phase.hpp"
#include "policy/line_pack.hpp"
#include "policy/registry.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

/// Shared plumbing: the registered metadata.
class SchedulerBase : public Scheduler {
 public:
  explicit SchedulerBase(SchedulerInfo info) : info_(std::move(info)) {}

  const SchedulerInfo& info() const override { return info_; }

 protected:
  SchedulerInfo info_;
};

// ---- two_phase family ---------------------------------------------------

/// Which policy-axis variant a TwoPhaseScheduler instantiates. The
/// raise rule itself comes from DistributedOptions::rule (the narrow
/// rule only runs on narrow-height universes, so it is a config choice,
/// not a registered id).
struct TwoPhaseVariant {
  SchedulePolicy schedule = SchedulePolicy::Staged;
  /// True: exhaustive Luby MIS per step (misRoundBudget 0) instead of
  /// the configured budget — the MIS policy axis.
  bool exhaustiveMis = false;
  bool localSearchAdmission = false;
};

class TwoPhaseScheduler : public SchedulerBase {
 public:
  TwoPhaseScheduler(SchedulerInfo info, DistributedOptions options,
                    TwoPhaseVariant variant)
      : SchedulerBase(std::move(info)),
        options_(std::move(options)),
        variant_(variant) {
    // The §6 narrow stage plan is only defined for hmin in (0, 1/2];
    // clamp to the boundary when narrow-rule options arrive with the
    // generic default (1.0).
    if (options_.rule == RaiseRule::Narrow && options_.hmin > 0.5) {
      options_.hmin = 0.5;
    }
    if (variant_.exhaustiveMis) options_.misRoundBudget = 0;
  }

  ScheduleOutcome solve(const ScheduleContext& context) override {
    checkThat(context.universe.conflictsBuilt(),
              "conflicts built before scheduler solve", __FILE__, __LINE__);
    std::vector<InstanceId> storage;
    const std::span<const InstanceId> active =
        resolveActiveSet(context, storage);

    ScheduleOutcome outcome;
    if (variant_.schedule == SchedulePolicy::Threshold) {
      solveCentralized(context, active, outcome);
    } else {
      solveDistributed(context, active, outcome);
    }
    if (variant_.localSearchAdmission) {
      const LocalSearchResult improved = improveSolutionRestricted(
          context.universe, outcome.solution, active);
      outcome.solution = improved.solution;
      outcome.profit = improved.profit;
    }
    return outcome;
  }

 private:
  /// The threshold-schedule variant runs the centralized engine: the
  /// distributed protocol walks the staged plan only.
  void solveCentralized(const ScheduleContext& context,
                        std::span<const InstanceId> active,
                        ScheduleOutcome& outcome) const {
    FrameworkConfig config = centralizedReference(options_);
    config.schedule = variant_.schedule;
    TwoPhaseResult result = runTwoPhaseRestricted(
        context.universe, context.layering, config, active);
    outcome.solution = std::move(result.solution);
    std::sort(outcome.solution.instances.begin(),
              outcome.solution.instances.end());
    outcome.profit = result.profit;
    outcome.dualUpperBound = result.dualUpperBound;
    outcome.lambdaMeasured = result.stats.lambdaMeasured;
    outcome.raises = result.stats.raises;
  }

  void solveDistributed(const ScheduleContext& context,
                        std::span<const InstanceId> active,
                        ScheduleOutcome& outcome) const {
    WarmStart warm;
    warm.activeInstances = active;

    DistributedResult result;
    if (context.transport != nullptr) {
      // External (possibly long-lived) wire: report the traffic delta of
      // this solve, not the transport's cumulative accounting.
      const NetworkStats before = context.transport->stats();
      result = runDistributedWarmStart(context.universe, context.layering,
                                       *context.transport, options_, warm);
      outcome.rounds = result.network.rounds - before.rounds;
      outcome.messages = result.network.messages - before.messages;
    } else {
      SimNetwork bus(communicationGraph(
          context.access, context.universe.numNetworks()));
      result = runDistributedWarmStart(context.universe, context.layering,
                                       bus, options_, warm);
      outcome.rounds = result.network.rounds;
      outcome.messages = result.network.messages;
    }
    outcome.solution = std::move(result.solution);  // already ascending
    outcome.profit = result.profit;
    outcome.dualUpperBound = result.dualUpperBound;
    outcome.lambdaMeasured = result.lambdaMeasured;
    outcome.raises = result.raises;
  }

  DistributedOptions options_;
  TwoPhaseVariant variant_;
};

// ---- Centralized baselines ----------------------------------------------

class GreedyScheduler : public SchedulerBase {
 public:
  GreedyScheduler(SchedulerInfo info, bool localSearch)
      : SchedulerBase(std::move(info)), localSearch_(localSearch) {}

  ScheduleOutcome solve(const ScheduleContext& context) override {
    std::vector<InstanceId> storage;
    const std::span<const InstanceId> active =
        resolveActiveSet(context, storage);
    ScheduleOutcome outcome;
    const GreedyResult greedy =
        greedyByProfitRestricted(context.universe, active);
    if (localSearch_) {
      const LocalSearchResult improved =
          improveSolutionRestricted(context.universe, greedy.solution, active);
      outcome.solution = improved.solution;
      outcome.profit = improved.profit;
    } else {
      outcome.solution = greedy.solution;
      std::sort(outcome.solution.instances.begin(),
                outcome.solution.instances.end());
      outcome.profit = greedy.profit;
    }
    return outcome;
  }

 private:
  bool localSearch_;
};

class LinePackScheduler : public SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;

  ScheduleOutcome solve(const ScheduleContext& context) override {
    std::vector<InstanceId> storage;
    const std::span<const InstanceId> active =
        resolveActiveSet(context, storage);
    LinePackResult packed = emrLinePack(context.universe, active);
    ScheduleOutcome outcome;
    outcome.solution = std::move(packed.solution);
    outcome.profit = packed.profit;
    return outcome;
  }
};

}  // namespace

namespace detail {

void registerBuiltinSchedulers(SchedulerRegistry& registry) {
  const auto twoPhase = [](SchedulerInfo info, TwoPhaseVariant variant) {
    return [info = std::move(info),
            variant](const DistributedOptions& options)
               -> std::unique_ptr<Scheduler> {
      return std::make_unique<TwoPhaseScheduler>(info, options, variant);
    };
  };

  SchedulerInfo reference{
      "two_phase",
      "paper two-phase LP-dual protocol over a Transport (reference)",
      /*certified=*/true, /*distributed=*/true};
  registry.add(reference, twoPhase(reference, {}));

  SchedulerInfo fullMis{
      "two_phase/full_mis",
      "MIS axis: exhaustive Luby MIS per step over a Transport",
      /*certified=*/true, /*distributed=*/true};
  registry.add(fullMis,
               twoPhase(fullMis, {SchedulePolicy::Staged, true, false}));

  SchedulerInfo threshold{
      "two_phase/threshold",
      "schedule axis: Panconesi-Sozio threshold plan (centralized engine)",
      /*certified=*/true, /*distributed=*/false};
  registry.add(threshold,
               twoPhase(threshold, {SchedulePolicy::Threshold, false,
                                    false}));

  SchedulerInfo postLs{
      "two_phase/local_search",
      "admission axis: phase-2 admission + deterministic local search",
      /*certified=*/true, /*distributed=*/true};
  registry.add(postLs,
               twoPhase(postLs, {SchedulePolicy::Staged, false, true}));

  SchedulerInfo greedy{"greedy",
                       "profit-greedy baseline (centralized, no guarantee)",
                       /*certified=*/false, /*distributed=*/false};
  registry.add(greedy, [greedy](const DistributedOptions&)
                           -> std::unique_ptr<Scheduler> {
    return std::make_unique<GreedyScheduler>(greedy, false);
  });

  SchedulerInfo greedyLs{
      "greedy/local_search",
      "profit-greedy + ADD/SWAP local search (centralized baseline)",
      /*certified=*/false, /*distributed=*/false};
  registry.add(greedyLs, [greedyLs](const DistributedOptions&)
                             -> std::unique_ptr<Scheduler> {
    return std::make_unique<GreedyScheduler>(greedyLs, true);
  });

  SchedulerInfo linePack{
      "emr_line_pack",
      "Even-Medina-Rosen-style density-class packing adapted to revenue",
      /*certified=*/false, /*distributed=*/false};
  registry.add(linePack, [linePack](const DistributedOptions&)
                             -> std::unique_ptr<Scheduler> {
    return std::make_unique<LinePackScheduler>(linePack);
  });
}

}  // namespace detail
}  // namespace treesched
