#include "dist/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "core/dynamic_universe.hpp"
#include "core/tolerances.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/sim_network.hpp"
#include "engine/parallel_runner.hpp"
#include "framework/dual_state.hpp"
#include "framework/lhs_tracker.hpp"
#include "framework/mis.hpp"
#include "framework/schedule.hpp"
#include "obs/ledger.hpp"
#include "obs/observer_adapter.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/touched_ids.hpp"

namespace treesched {
namespace {

/// Luby status of one instance within the current step.
enum class MisStatus : std::uint8_t { Inactive, Undecided, In, Out };

/// One dual raise as known to its owner before broadcasting.
struct PendingRaise {
  DemandId from = 0;
  InstanceId instance = kNoInstance;
  double alphaIncrement = 0;
  double betaIncrement = 0;
};

/// Per-processor local state: the tracked edges (union of the demand's
/// instance paths), the processor's dual view over them, and its phase-2
/// edge loads. Reentrant by construction — every method takes the shared
/// read-only structures explicitly and writes only this processor's own
/// slots (plus the lhs entries of its own instances), so contexts of
/// distinct processors run concurrently with no hidden shared state.
/// Methods are templated on the universe/layering types: over a
/// DynamicUniverse an inactive demand has no instances, so its context
/// is trivially empty — exactly the state its static-pool context would
/// never touch.
struct ProcessorContext {
  DemandId self = 0;
  double alpha = 0;  ///< alpha(self), the demand's own dual
  std::vector<GlobalEdgeId> tracked;               ///< sorted
  /// Own instances per tracked edge, flattened: those on tracked edge
  /// idx are own[ownBegin[idx], ownBegin[idx + 1]), ascending.
  std::vector<std::int32_t> ownBegin;
  std::vector<InstanceId> own;
  std::vector<double> beta;  ///< per tracked edge, local view
  std::vector<double> load;  ///< per tracked edge, phase-2 accepted load

  template <class U>
  void init(const U& u, DemandId p) {
    self = p;
    for (const InstanceId i : u.instancesOfDemand(p)) {
      for (const GlobalEdgeId e : u.path(i)) {
        tracked.push_back(e);
      }
    }
    std::sort(tracked.begin(), tracked.end());
    tracked.erase(std::unique(tracked.begin(), tracked.end()), tracked.end());
    // Counting sort into the flat lists: count per edge, prefix-sum,
    // place (ownBegin[idx] runs ahead as the cursor), then shift back.
    ownBegin.assign(tracked.size() + 1, 0);
    for (const InstanceId i : u.instancesOfDemand(p)) {
      for (const GlobalEdgeId e : u.path(i)) {
        ++ownBegin[static_cast<std::size_t>(trackedIndex(e)) + 1];
      }
    }
    for (std::size_t idx = 1; idx < ownBegin.size(); ++idx) {
      ownBegin[idx] += ownBegin[idx - 1];
    }
    own.resize(static_cast<std::size_t>(ownBegin.back()));
    for (const InstanceId i : u.instancesOfDemand(p)) {
      for (const GlobalEdgeId e : u.path(i)) {
        own[static_cast<std::size_t>(
            ownBegin[static_cast<std::size_t>(trackedIndex(e))]++)] = i;
      }
    }
    for (std::size_t idx = ownBegin.size() - 1; idx > 0; --idx) {
      ownBegin[idx] = ownBegin[idx - 1];
    }
    ownBegin[0] = 0;
    beta.assign(tracked.size(), 0.0);
    load.assign(tracked.size(), 0.0);
  }

  /// Zeroes the dual view and the loads, keeping the tracked edges (a
  /// context lives as long as its demand; its views are per run).
  void clearView() {
    alpha = 0;
    std::fill(beta.begin(), beta.end(), 0.0);
    std::fill(load.begin(), load.end(), 0.0);
  }

  /// Position of `e` in the tracked-edge list, or -1.
  std::int32_t trackedIndex(GlobalEdgeId e) const {
    const auto it = std::lower_bound(tracked.begin(), tracked.end(), e);
    if (it == tracked.end() || *it != e) return -1;
    return static_cast<std::int32_t>(it - tracked.begin());
  }

  /// Applies one raise to this processor's local view: the alpha part if
  /// the raise is its own, then the beta part on every critical edge it
  /// tracks — the same alpha-then-edges order as the centralized engine.
  /// `lhsLocal` is global-indexed but only this demand's entries are
  /// written.
  template <class U, class L>
  void applyRaise(const U& u, const L& lay, RaiseRule rule,
                  const PendingRaise& raise, std::vector<double>& lhsLocal) {
    if (raise.from == self) {
      alpha += raise.alphaIncrement;
      for (const InstanceId k : u.instancesOfDemand(self)) {
        lhsLocal[static_cast<std::size_t>(k)] += raise.alphaIncrement;
      }
    }
    for (const GlobalEdgeId e : lay.critical(raise.instance)) {
      const std::int32_t idx = trackedIndex(e);
      if (idx < 0) continue;
      const auto slot = static_cast<std::size_t>(idx);
      beta[slot] += raise.betaIncrement;
      for (std::int32_t o = ownBegin[slot]; o < ownBegin[slot + 1]; ++o) {
        const InstanceId k = own[static_cast<std::size_t>(o)];
        const double factor =
            rule == RaiseRule::Narrow ? u.instance(k).height : 1.0;
        lhsLocal[static_cast<std::size_t>(k)] +=
            factor * raise.betaIncrement;
      }
    }
  }

  /// True iff this processor can accept its own instance `i` given its
  /// locally known edge loads — the exact capacity test of the
  /// centralized FeasibilityOracle.
  template <class U>
  bool capacityOk(const U& u, InstanceId i) const {
    const double h = u.instance(i).height;
    for (const GlobalEdgeId e : u.path(i)) {
      const std::int32_t idx = trackedIndex(e);
      checkThat(idx >= 0, "own path edge tracked", __FILE__, __LINE__);
      if (load[static_cast<std::size_t>(idx)] + h > 1.0 + kCapacityTolerance) {
        return false;
      }
    }
    return true;
  }

  /// Adds the load of an accepted instance on every tracked edge of its
  /// path (the accepter's own instance, or a neighbour's Accept message).
  template <class U>
  void addLoad(const U& u, InstanceId i) {
    const double h = u.instance(i).height;
    for (const GlobalEdgeId e : u.path(i)) {
      const std::int32_t idx = trackedIndex(e);
      if (idx < 0) continue;
      load[static_cast<std::size_t>(idx)] += h;
    }
  }
};

/// Attaches the engine's runner and telemetry to the caller-owned
/// transport for one run and detaches them on every exit path, so the
/// transport never holds pointers into an engine between runs.
class TransportAttachment {
 public:
  TransportAttachment(Transport& net, ParallelRunner& runner,
                      const DistributedOptions& options)
      : net_(net) {
    net_.attachTelemetry(options.tracer, options.metrics);
    net_.attachRunner(&runner);
  }
  ~TransportAttachment() {
    net_.attachRunner(nullptr);
    net_.attachTelemetry(nullptr, nullptr);
  }
  TransportAttachment(const TransportAttachment&) = delete;
  TransportAttachment& operator=(const TransportAttachment&) = delete;

 private:
  Transport& net_;
};

}  // namespace

/// The whole simulation: per-processor contexts plus the ground-truth
/// duals used for the consistency audit. Round loops iterate active sets
/// (undecided instances, processors with non-empty inboxes); the
/// independent per-processor decisions of a round run as parallel shard
/// sections with merges by shard id, so results are bit-identical at any
/// thread count.
///
/// Templated on the universe/layering pair so one engine serves both the
/// static pool (InstanceUniverse + Layering) and the incrementally
/// maintained DynamicUniverse + DynamicLayeringView. Every query the
/// engine makes has identical semantics on the live restriction, so the
/// instantiations are bit-identical on the same warm-start set — the
/// dynamic_universe equivalence gate.
///
/// Persistent state and its per-run reset. The pool-dense arrays are
/// allocated once. A run writes the ground duals of its raises (the
/// DualState records which ids), the LHS views of the instances those
/// raises reach, and the contexts of the processors it involves
/// (runProcs_). beginRun() undoes exactly that before the next run, so a
/// run's set-up costs O(what the previous run touched + the new
/// restriction). Per-phase scratch (MIS status, phase-2 demand flags, the
/// ledger's certificate state) is left clean by the phase that dirtied
/// it.
template <class U, class L>
class ProtocolEngine<U, L>::Impl {
 public:
  Impl(const U& universe, const L& layering, Transport& transport,
       const DistributedOptions& options)
      : u_(universe),
        lay_(layering),
        net_(transport),
        fixed_(options),
        runner_(std::max<std::int32_t>(1, options.threads)),
        plan_(makeStagePlan(SchedulePolicy::Staged, options.rule,
                            options.epsilon,
                            std::max<std::int32_t>(1, layering.maxCriticalSize),
                            options.hmin)),
        numProc_(universe.numDemands()),
        groundDual_(universe),
        groundLhs_(universe, options.rule),
        lhsLocal_(static_cast<std::size_t>(universe.numInstances()), 0.0),
        contexts_(static_cast<std::size_t>(numProc_)),
        runProcs_(static_cast<std::size_t>(numProc_)),
        crashed_(static_cast<std::size_t>(numProc_), std::uint8_t{0}),
        demandUsed_(static_cast<std::size_t>(numProc_), std::uint8_t{0}),
        misStatus_(static_cast<std::size_t>(universe.numInstances()),
                   MisStatus::Inactive),
        priority_(static_cast<std::size_t>(universe.numInstances()), 0),
        members_(static_cast<std::size_t>(layering.numGroups)) {
    checkThat(u_.conflictsBuilt(), "conflicts built before protocol run",
              __FILE__, __LINE__);
    checkThat(net_.numProcessors() == numProc_,
              "one processor per demand", __FILE__, __LINE__);

    // Contexts of the demands present now, built in parallel. Context
    // cost is proportional to the demand's instance count, so the plan
    // is weighted — a hot demand owning most of the pool's instances
    // gets its own shard instead of serializing a uniform one. The
    // runner's telemetry attaches first, so the build's shard claims
    // reach `engine.claims` like every later section's.
    runner_.attachTelemetry(options.tracer, options.metrics);
    std::vector<DemandId> present;
    for (DemandId p = 0; p < numProc_; ++p) {
      const auto count = u_.instancesOfDemand(p).size();
      if (count == 0) continue;
      present.push_back(p);
      weightScratch_.push_back(static_cast<std::int64_t>(count));
      contexts_[static_cast<std::size_t>(p)] =
          std::make_unique<ProcessorContext>();
    }
    if (present.empty()) return;
    runner_.planWeighted(weightScratch_, weightedPlan_);
    runner_.forShards(weightedPlan_, [&](std::int32_t shard) {
      const std::int64_t end = weightedPlan_.end(shard);
      for (std::int64_t idx = weightedPlan_.begin(shard); idx < end; ++idx) {
        const DemandId p = present[static_cast<std::size_t>(idx)];
        contexts_[static_cast<std::size_t>(p)]->init(u_, p);
      }
    });
  }

  void addProcessor(DemandId d) {
    checkIndex(d, numProc_, "arriving processor");
    auto& context = contexts_[static_cast<std::size_t>(d)];
    checkThat(context == nullptr, "processor context not yet built",
              __FILE__, __LINE__);
    context = std::make_unique<ProcessorContext>();
    context->init(u_, d);
    // The LHS views of d's instances may hold what a run wrote before d
    // last departed; start them level.
    for (const InstanceId k : u_.instancesOfDemand(d)) {
      setLhs(k, 0.0);
    }
  }

  void removeProcessor(DemandId d) {
    checkIndex(d, numProc_, "departing processor");
    contexts_[static_cast<std::size_t>(d)].reset();
  }

  DistributedResult run(const DistributedOptions& options,
                        const WarmStart& warm) {
    checkThat(options.epsilon == fixed_.epsilon &&
                  options.rule == fixed_.rule && options.hmin == fixed_.hmin &&
                  options.threads == fixed_.threads,
              "stage-plan options (epsilon, rule, hmin, threads) are fixed "
              "per engine",
              __FILE__, __LINE__);
    // Phase scratch is cleaned by the phase itself, so a run that threw
    // midway leaves state no reset undoes.
    checkThat(!runInFlight_, "an engine whose run threw is not reused",
              __FILE__, __LINE__);
    runInFlight_ = true;
    Tracer* tracer = options.tracer;
    const bool trace = tracer != nullptr && tracer->enabled();
    const std::int64_t setupBegin = trace ? tracer->now() : 0;
    beginRun(options, warm);
    const TransportAttachment attachment(net_, runner_, opt_);
    if (trace) {
      tracer->span("engine_setup", "engine", 0, setupBegin,
                   {{"restricted",
                     static_cast<std::int64_t>(restricted_.size())}});
    }

    runPhase1();
    measureSlackness();
    auditLocalViews();
    runPhase2();

    DistributedResult result;
    std::sort(acceptOrder_.begin(), acceptOrder_.end());
    result.solution.instances = std::move(acceptOrder_);
    result.profit = profit_;
    result.dualObjective = groundDual_.objective();
    result.lambdaTarget = plan_.lambdaTarget;
    result.lambdaMeasured = lambdaMeasured_;
    result.dualUpperBound =
        lambdaMeasured_ > 0 ? result.dualObjective / lambdaMeasured_
                            : std::numeric_limits<double>::infinity();
    result.network = net_.stats();
    result.scheduledSteps = scheduledSteps_;
    result.activeSteps = activeSteps_;
    result.raises = raises_;
    result.crashedProcessors = crashedCount_;
    result.localViewsConsistent = localViewsConsistent_;
    result.raiseLog = std::move(raiseLog_);
    result.engineClaims = runner_.claims() - claimsReported_;
    result.engineSteals = runner_.steals() - stealsReported_;
    claimsReported_ = runner_.claims();
    stealsReported_ = runner_.steals();
    requireFeasible(u_, result.solution);
    runInFlight_ = false;
    return result;
  }

 private:
  /// Undoes the previous run's writes, then installs this run's options,
  /// restriction, warm-start LHS, faults and observer.
  void beginRun(const DistributedOptions& options, const WarmStart& warm) {
    // LHS views: the ground tracker wrote exactly the instances of the
    // raised demands and the instances on the raised edges, and every
    // local write is one of those. Instances that left the universe
    // since are skipped here and levelled by addProcessor on return.
    for (const DemandId d : groundDual_.touchedDemands()) {
      for (const InstanceId k : u_.instancesOfDemand(d)) setLhs(k, 0.0);
    }
    for (const GlobalEdgeId e : groundDual_.touchedEdges()) {
      for (const InstanceId k : u_.instancesOnEdge(e)) setLhs(k, 0.0);
    }
    groundDual_.reset();
    for (const DemandId p : runProcs_.ids()) {
      if (ProcessorContext* context = contextOf(p)) context->clearView();
    }
    runProcs_.clear();
    for (const DemandId d : crashList_) {
      crashed_[static_cast<std::size_t>(d)] = 0;
    }

    opt_ = options;
    tracing_.emplace(opt_.tracer, opt_.metrics, opt_.observer);
    // With a tracer or a registry attached, the adapter becomes the
    // engine's observer (forwarding to the caller's). Without either it
    // is bypassed entirely — the telemetry-off path is the seed path.
    obs_ = tracing_->active()          ? &*tracing_
           : opt_.observer != nullptr ? opt_.observer
                                      : &nullObserver_;
    runner_.attachTelemetry(opt_.tracer, opt_.metrics);

    stepsPerStage_ = opt_.stepsPerStage;
    if (stepsPerStage_ == 0) {
      stepsPerStage_ =
          fixedScheduleStepsPerStage(u_.profitMax(), u_.profitMin());
    }
    scheduledSteps_ = static_cast<std::int64_t>(lay_.numGroups) *
                      plan_.numStages * stepsPerStage_;

    const std::int32_t numInst = u_.numInstances();
    for (auto& group : members_) group.clear();
    restricted_.clear();
    if (warm.activeInstances.empty()) {
      for (InstanceId i = 0; i < numInst; ++i) {
        members_[static_cast<std::size_t>(
                     lay_.group[static_cast<std::size_t>(i)])]
            .push_back(i);
        restricted_.push_back(i);
      }
    } else {
      // The restriction must be ascending so the group member lists come
      // out in the order a full enumeration would produce — the keystone
      // of bit-identity with runTwoPhaseRestricted.
      for (std::size_t idx = 0; idx < warm.activeInstances.size(); ++idx) {
        const InstanceId i = warm.activeInstances[idx];
        checkIndex(i, numInst, "warm-start active instance");
        checkThat(idx == 0 || warm.activeInstances[idx - 1] < i,
                  "warm-start active set sorted ascending", __FILE__,
                  __LINE__);
        members_[static_cast<std::size_t>(
                     lay_.group[static_cast<std::size_t>(i)])]
            .push_back(i);
        restricted_.push_back(i);
      }
    }

    // Warm start: only the restricted instances' LHS feed a decision
    // (the satisfaction filter, the raise slack, lambda), so only they
    // are seeded; both views start level, which is all the audit needs
    // elsewhere.
    if (!warm.priorLhs.empty()) {
      checkThat(warm.priorLhs.size() == static_cast<std::size_t>(numInst),
                "warm-start priorLhs covers every instance", __FILE__,
                __LINE__);
    }
    for (const InstanceId i : restricted_) {
      setLhs(i, warm.priorLhs.empty()
                    ? 0.0
                    : warm.priorLhs[static_cast<std::size_t>(i)]);
    }

    // Crash-stop fault set (ascending, duplicate-free), validated before
    // it is kept: the next run's reset indexes by it.
    for (const DemandId d : opt_.crashProcessors) {
      checkIndex(d, numProc_, "crashProcessors entry");
    }
    crashList_.assign(opt_.crashProcessors.begin(),
                      opt_.crashProcessors.end());
    std::sort(crashList_.begin(), crashList_.end());
    crashList_.erase(std::unique(crashList_.begin(), crashList_.end()),
                     crashList_.end());
    for (const DemandId d : crashList_) {
      crashed_[static_cast<std::size_t>(d)] = 1;
    }
    crashedCount_ = static_cast<std::int32_t>(crashList_.size());
    crashAnnounced_ = false;

    // Decision provenance (obs/ledger.hpp): with an ENABLED ledger the
    // engine keeps the global certificate state phase 2 consults to name
    // a rejection's blocker, allocated at the first such run. A null or
    // disabled ledger leaves the hot loop exactly on the seed path (the
    // zero-allocation gate in tests/provenance_test.cpp).
    ledgerOn_ = opt_.ledger != nullptr && opt_.ledger->enabled();
    if (ledgerOn_ && acceptedOfDemand_.empty()) {
      acceptedOfDemand_.assign(static_cast<std::size_t>(numProc_),
                               kNoInstance);
      firstLoaderOfEdge_.assign(groundDual_.numEdges(), kNoInstance);
      ledgerEdgeLoad_.assign(groundDual_.numEdges(), 0.0);
    }

    stackTuples_.clear();
    stackBegin_.clear();
    stackMembers_.clear();
    raiseLog_.clear();
    acceptOrder_.clear();
    activeSteps_ = 0;
    raises_ = 0;
    profit_ = 0;
    lambdaMeasured_ = 0;
    localViewsConsistent_ = false;
  }

  void setLhs(InstanceId k, double value) {
    lhsLocal_[static_cast<std::size_t>(k)] = value;
    groundLhs_.set(k, value);
  }

  DemandId owner(InstanceId i) const { return u_.instance(i).demand; }

  /// Same answer as InstanceUniverse::conflicting(v, w) for v != w, but
  /// O(log deg) via the prebuilt sorted adjacency instead of a path scan.
  bool conflictsWith(InstanceId v, InstanceId w) const {
    const auto adj = u_.conflictsOf(v);
    return std::binary_search(adj.begin(), adj.end(), w);
  }

  /// Alive during phase-1 tuple `tuple` (crashes hit at tuple start).
  bool aliveAt(DemandId p, std::int64_t tuple) const {
    return crashed_[static_cast<std::size_t>(p)] == 0 ||
           tuple < opt_.crashAtTuple;
  }

  /// Alive during phase 2: every listed processor is dead by then.
  bool aliveP2(DemandId p) const {
    return crashed_[static_cast<std::size_t>(p)] == 0;
  }

  ProcessorContext* contextOf(DemandId p) {
    return contexts_[static_cast<std::size_t>(p)].get();
  }

  /// Parallel order-preserving filter: shard outputs are concatenated by
  /// shard id, so `out` is exactly the serial filter of `in`.
  template <typename Pred>
  void filterInstances(const std::vector<InstanceId>& in,
                       std::vector<InstanceId>& out, Pred pred) {
    out.clear();
    const ParallelRunner::ShardPlan shardPlan =
        runner_.plan(static_cast<std::int64_t>(in.size()));
    if (shardPlan.numShards <= 1) {
      for (const InstanceId i : in) {
        if (pred(i)) out.push_back(i);
      }
      return;
    }
    if (shardLists_.size() < static_cast<std::size_t>(shardPlan.numShards)) {
      // Grow-only: shrinking would free per-shard buffer capacity that
      // the next (larger) stage reset would have to re-allocate.
      shardLists_.resize(static_cast<std::size_t>(shardPlan.numShards));
    }
    runner_.forShards(shardPlan, [&](std::int32_t shard) {
      auto& list = shardLists_[static_cast<std::size_t>(shard)];
      list.clear();
      const std::int64_t end = shardPlan.end(shard);
      for (std::int64_t idx = shardPlan.begin(shard); idx < end; ++idx) {
        const InstanceId i = in[static_cast<std::size_t>(idx)];
        if (pred(i)) list.push_back(i);
      }
    });
    for (std::int32_t shard = 0; shard < shardPlan.numShards; ++shard) {
      const auto& list = shardLists_[static_cast<std::size_t>(shard)];
      out.insert(out.end(), list.begin(), list.end());
    }
  }

  /// Runs fn(item) over a list in parallel shards. fn must write only
  /// item-owned state.
  template <typename T, typename Fn>
  void forEachParallel(const std::vector<T>& items, Fn fn) {
    const ParallelRunner::ShardPlan shardPlan =
        runner_.plan(static_cast<std::int64_t>(items.size()));
    runner_.forShards(shardPlan, [&](std::int32_t shard) {
      const std::int64_t end = shardPlan.end(shard);
      for (std::int64_t idx = shardPlan.begin(shard); idx < end; ++idx) {
        fn(items[static_cast<std::size_t>(idx)]);
      }
    });
  }

  /// forEachParallel with a cost-proportional shard plan: weightFn(item)
  /// estimates fn(item)'s cost, so one hot item (a processor holding
  /// most of the round's traffic) no longer serializes its whole shard's
  /// neighbors behind it. The partition is a pure performance knob —
  /// results are identical to forEachParallel by the shard-merge
  /// discipline. Scratch buffers are member-owned and grow-only, keeping
  /// the round hot loop allocation-free in steady state.
  template <typename T, typename WeightFn, typename Fn>
  void forEachParallelWeighted(const std::vector<T>& items, WeightFn weightFn,
                               Fn fn) {
    weightScratch_.clear();
    weightScratch_.reserve(items.size());
    for (const T& item : items) {
      weightScratch_.push_back(weightFn(item));
    }
    runner_.planWeighted(weightScratch_, weightedPlan_);
    runner_.forShards(weightedPlan_, [&](std::int32_t shard) {
      const std::int64_t end = weightedPlan_.end(shard);
      for (std::int64_t idx = weightedPlan_.begin(shard); idx < end; ++idx) {
        fn(items[static_cast<std::size_t>(idx)]);
      }
    });
  }

  void runPhase1() {
    std::int64_t tuple = 0;
    for (std::int32_t epoch = 0; epoch < lay_.numGroups; ++epoch) {
      obs_->onEpochBegin(epoch,
                         static_cast<std::int32_t>(
                             members_[static_cast<std::size_t>(epoch)].size()));
      for (std::int32_t stage = 1; stage <= plan_.numStages; ++stage) {
        const double target = plan_.stageTarget(stage);
        obs_->onStageBegin(epoch, stage, target);
        // The stage's active set: lhs only grows within a stage, so an
        // instance observed satisfied for this target never re-enters —
        // steps scan survivors, not the whole group.
        stageActive_ = members_[static_cast<std::size_t>(epoch)];
        for (std::int32_t step = 1; step <= stepsPerStage_; ++step) {
          runStep(epoch, stage, step, tuple, target);
          ++tuple;
        }
      }
    }
    obs_->onPhase1Complete(activeSteps_, raises_);
  }

  /// Reports crash-stop faults taking effect: fires onCrash once per
  /// crashed processor (ascending) the first time the schedule reaches a
  /// tuple at which they are dead. Phase 2 announces with
  /// tuple == scheduledSteps_ (the first pop) and `phase2` set, because
  /// every listed processor is dead there (aliveP2) even when
  /// crashAtTuple lies beyond the schedule.
  void announceCrashes(std::int64_t tuple, bool phase2 = false) {
    if (crashAnnounced_ || crashedCount_ == 0 ||
        (!phase2 && tuple < opt_.crashAtTuple)) {
      return;
    }
    crashAnnounced_ = true;
    for (const DemandId p : crashList_) {
      obs_->onCrash(p, tuple);
      if (ledgerOn_) {
        LedgerEvent ev;
        ev.demand = p;
        ev.kind = LedgerEventKind::Crash;
        ev.tuple = tuple;
        opt_.ledger->record(ev);
      }
    }
  }

  void runStep(std::int32_t epoch, std::int32_t stage, std::int32_t step,
               std::int64_t tuple, double target) {
    announceCrashes(tuple);
    const std::int32_t budget = opt_.misRoundBudget;

    // Each alive processor checks its surviving instances of the
    // scheduled group against the stage target (purely local knowledge).
    // Satisfied and crashed instances leave the active set for good.
    filterInstances(stageActive_, unsatisfied_, [&](InstanceId i) {
      if (!aliveAt(owner(i), tuple)) return false;
      const double p = u_.instance(i).profit;
      return lhsLocal_[static_cast<std::size_t>(i)] <
             target * p - kSatisfyTolerance * p;
    });
    stageActive_.swap(unsatisfied_);
    const std::vector<InstanceId>& unsatisfied = stageActive_;

    if (unsatisfied.empty()) {
      // The fixed schedule still spends the step's rounds; nobody
      // transmits. Run-to-completion MIS (budget <= 0) costs only the
      // raise round.
      net_.endSilentRounds(budget > 0 ? 2 * budget + 1 : 1);
      return;
    }

    obs_->onStepStart(epoch, stage, step,
                      static_cast<std::int32_t>(unsatisfied.size()));
    ++activeSteps_;
    const std::uint64_t stepSeed =
        keyedHash(opt_.seed, static_cast<std::uint64_t>(epoch),
                  static_cast<std::uint64_t>(stage),
                  static_cast<std::uint64_t>(step));

    lubyOverMessages(unsatisfied, stepSeed, budget);
    obs_->onMisComplete(tuple, lastLubyRounds_,
                        static_cast<std::int32_t>(misMembers_.size()));
    raiseRound(tuple, misMembers_);

    // Reset per-step Luby state.
    for (const InstanceId i : unsatisfied) {
      misStatus_[static_cast<std::size_t>(i)] = MisStatus::Inactive;
    }
  }

  /// Runs the step's MIS as messages: per Luby round, one communication
  /// round announcing undecided instances and one announcing joiners.
  /// Leaves the MIS in misMembers_, sorted ascending; charges exactly
  /// 2*budget rounds when a budget is set (silent once the MIS completes
  /// early). Round-B decisions and join-propagation are per-instance
  /// independent, so both run as parallel shard sections.
  void lubyOverMessages(const std::vector<InstanceId>& unsatisfied,
                        std::uint64_t stepSeed, std::int32_t budget) {
    for (const InstanceId i : unsatisfied) {
      misStatus_[static_cast<std::size_t>(i)] = MisStatus::Undecided;
    }
    undecided_ = unsatisfied;
    misMembers_.clear();
    lastLubyRounds_ = 0;

    while (!undecided_.empty() &&
           (budget <= 0 || lastLubyRounds_ < budget)) {
      ++lastLubyRounds_;
      const std::int32_t round = lastLubyRounds_;

      // Round A: every undecided instance announces itself.
      for (const InstanceId i : undecided_) {
        net_.broadcast({MessageKind::MisActive, owner(i), i, 0.0});
      }
      net_.endRound();

      // Priorities are seed-keyed hashes, so the receiver can evaluate
      // the sender's priority itself. Every round-A sender is undecided,
      // so caching priorities over the undecided set covers every
      // competitor the decisions below look at.
      forEachParallel(undecided_, [&](InstanceId v) {
        priority_[static_cast<std::size_t>(v)] =
            misPriority(stepSeed, round, v);
      });

      // Round B: each owner decides from its inbox whether its instance
      // beats every undecided conflicting competitor, then announces
      // joins.
      filterInstances(undecided_, joiners_, [&](InstanceId v) {
        const DemandId p = owner(v);
        const std::uint64_t pv = priority_[static_cast<std::size_t>(v)];
        for (const InstanceId w : u_.instancesOfDemand(p)) {
          if (w == v ||
              misStatus_[static_cast<std::size_t>(w)] != MisStatus::Undecided) {
            continue;
          }
          const std::uint64_t pw = priority_[static_cast<std::size_t>(w)];
          if (pw > pv || (pw == pv && w > v)) {
            return false;
          }
        }
        for (const Message& m : net_.inbox(p)) {
          if (m.kind != MessageKind::MisActive) continue;
          if (!conflictsWith(v, m.instance)) continue;
          const std::uint64_t pw =
              priority_[static_cast<std::size_t>(m.instance)];
          if (pw > pv || (pw == pv && m.instance > v)) {
            return false;
          }
        }
        return true;
      });
      for (const InstanceId v : joiners_) {
        net_.broadcast({MessageKind::MisJoin, owner(v), v, 0.0});
      }
      net_.endRound();

      // Apply joins: winners in; conflicting undecided out, discovered
      // locally for same-processor instances (joiners have distinct
      // owners, so these writes are disjoint) and via MisJoin messages
      // for neighbours.
      for (const InstanceId v : joiners_) {
        misStatus_[static_cast<std::size_t>(v)] = MisStatus::In;
        misMembers_.push_back(v);
        for (const InstanceId w : u_.instancesOfDemand(owner(v))) {
          if (misStatus_[static_cast<std::size_t>(w)] ==
              MisStatus::Undecided) {
            misStatus_[static_cast<std::size_t>(w)] = MisStatus::Out;
          }
        }
      }
      forEachParallel(undecided_, [&](InstanceId v) {
        if (misStatus_[static_cast<std::size_t>(v)] != MisStatus::Undecided) {
          return;
        }
        for (const Message& m : net_.inbox(owner(v))) {
          if (m.kind != MessageKind::MisJoin) continue;
          if (conflictsWith(v, m.instance)) {
            misStatus_[static_cast<std::size_t>(v)] = MisStatus::Out;
            return;
          }
        }
      });
      std::erase_if(undecided_, [&](InstanceId v) {
        return misStatus_[static_cast<std::size_t>(v)] != MisStatus::Undecided;
      });
    }

    if (budget > 0) {
      net_.endSilentRounds(
          2 * static_cast<std::int64_t>(budget - lastLubyRounds_));
    }
    std::sort(misMembers_.begin(), misMembers_.end());
  }

  /// The step's raise round: every MIS member's owner tightens its dual
  /// constraint and broadcasts the increments; every processor that
  /// received (or sent) a raise then applies them in canonical (sender)
  /// order so each local accumulator sees the exact sequence the
  /// centralized engine produces. Application is per-processor
  /// independent and runs parallel over the active processors only.
  void raiseRound(std::int64_t tuple,
                  const std::vector<InstanceId>& misMembers) {
    stepRaises_.clear();
    for (const InstanceId i : misMembers) {
      const DemandId p = owner(i);
      const InstanceRecord& rec = u_.instance(i);
      const double slack =
          rec.profit - lhsLocal_[static_cast<std::size_t>(i)];
      checkThat(slack > 0, "raised instance had positive slack", __FILE__,
                __LINE__);
      const auto critical = lay_.critical(i);
      const RaiseAmounts amounts =
          computeRaise(opt_.rule, u_, i, critical, slack);
      net_.broadcast(
          {MessageKind::DualRaise, p, i, amounts.betaIncrement});
      stepRaises_.push_back(
          {p, i, amounts.alphaIncrement, amounts.betaIncrement});
      if (opt_.recordRaiseLog) {
        raiseLog_.push_back(
            {tuple, i, amounts.alphaIncrement, amounts.betaIncrement});
      }
      obs_->onRaise(tuple, i, amounts.alphaIncrement);
      if (ledgerOn_) {
        LedgerEvent ev;
        ev.demand = p;
        ev.kind = LedgerEventKind::DualRaise;
        ev.instance = i;
        ev.tuple = tuple;
        ev.alphaIncrement = amounts.alphaIncrement;
        ev.betaIncrement = amounts.betaIncrement;
        opt_.ledger->record(ev);
      }
      ++raises_;
      // Ground truth, applied in the centralized engine's order.
      applyRaise(groundDual_, u_, i, critical, amounts);
      groundLhs_.onRaise(i, critical, amounts);
    }
    net_.endRound();
    if (!misMembers.empty()) {
      stackTuples_.push_back(tuple);
      stackBegin_.push_back(stackMembers_.size());
      stackMembers_.insert(stackMembers_.end(), misMembers.begin(),
                           misMembers.end());
    }

    // Active processors: non-empty inbox or an own raise. Everyone else
    // would apply nothing — the serial engine's full-processor scan is
    // equivalent but O(n) per round.
    activeProcs_.clear();
    net_.appendActiveInboxes(activeProcs_);
    for (const PendingRaise& r : stepRaises_) {
      activeProcs_.push_back(r.from);
    }
    std::sort(activeProcs_.begin(), activeProcs_.end());
    activeProcs_.erase(std::unique(activeProcs_.begin(), activeProcs_.end()),
                       activeProcs_.end());
    markRunProcs(activeProcs_);
    // Apply cost per processor is dominated by its inbox length (this
    // round's raise traffic — i.e. the step participants just observed),
    // so that feeds the weighted plan: a hotspot processor receiving
    // most of the raises becomes its own shard.
    forEachParallelWeighted(
        activeProcs_,
        [&](std::int32_t p) {
          return static_cast<std::int64_t>(net_.inbox(p).size());
        },
        [&](std::int32_t p) {
          if (!aliveAt(p, tuple)) return;
          applyRaisesLocally(p);
        });
  }

  /// Merges p's own raise with the received DualRaise messages in sender
  /// order (== ascending instance order, since instances are numbered
  /// demand-major) and applies them to p's context.
  void applyRaisesLocally(DemandId p) {
    // stepRaises_ is sorted by sender (misMembers_ ascending, one
    // instance per demand), so the own raise is a binary search away.
    const PendingRaise* own = nullptr;
    const auto it = std::lower_bound(
        stepRaises_.begin(), stepRaises_.end(), p,
        [](const PendingRaise& r, DemandId d) { return r.from < d; });
    if (it != stepRaises_.end() && it->from == p) {
      own = &*it;
    }
    ProcessorContext* found = contextOf(p);
    if (found == nullptr) return;  // no instances: nothing to track
    ProcessorContext& context = *found;
    bool ownApplied = own == nullptr;
    for (const Message& m : net_.inbox(p)) {
      if (m.kind != MessageKind::DualRaise) continue;
      if (!ownApplied && own->from < m.from) {
        context.applyRaise(u_, lay_, opt_.rule, *own, lhsLocal_);
        ownApplied = true;
      }
      context.applyRaise(u_, lay_, opt_.rule,
                         {m.from, m.instance, 0.0, m.value}, lhsLocal_);
    }
    if (!ownApplied) {
      context.applyRaise(u_, lay_, opt_.rule, *own, lhsLocal_);
    }
  }

  void measureSlackness() {
    double lambda = std::numeric_limits<double>::infinity();
    bool any = false;
    for (const InstanceId i : restricted_) {
      if (!aliveP2(owner(i))) continue;
      any = true;
      lambda = std::min(lambda,
                        groundLhs_.lhs(i) / u_.instance(i).profit);
    }
    lambdaMeasured_ = any ? lambda : 1.0;
  }

  /// Records processors whose context this run writes (serial callers
  /// only), so the next run's reset and this run's audit visit exactly
  /// them.
  void markRunProcs(const std::vector<std::int32_t>& procs) {
    for (const std::int32_t p : procs) runProcs_.mark(p);
  }

  /// Exact-equality audit of every surviving processor's local dual view
  /// against the ground truth of the raises that actually happened. It
  /// walks the processors of the run: those that applied a message, plus
  /// every owner of a raised demand or of an instance on a raised edge —
  /// all processors whose ground view moved, delivered to or not. Every
  /// other processor holds zeros against zeros and cannot differ.
  void auditLocalViews() {
    for (const DemandId d : groundDual_.touchedDemands()) runProcs_.mark(d);
    for (const GlobalEdgeId e : groundDual_.touchedEdges()) {
      for (const InstanceId k : u_.instancesOnEdge(e)) {
        runProcs_.mark(owner(k));
      }
    }
    localViewsConsistent_ = true;
    for (const DemandId p : runProcs_.ids()) {
      if (!aliveP2(p)) continue;
      const ProcessorContext* context = contextOf(p);
      if (context == nullptr) {
        if (groundDual_.alpha(p) != 0.0) localViewsConsistent_ = false;
        continue;
      }
      if (context->alpha != groundDual_.alpha(p)) {
        localViewsConsistent_ = false;
      }
      for (std::size_t idx = 0; idx < context->tracked.size(); ++idx) {
        if (context->beta[idx] != groundDual_.beta(context->tracked[idx])) {
          localViewsConsistent_ = false;
        }
      }
      for (const InstanceId k : u_.instancesOfDemand(p)) {
        if (lhsLocal_[static_cast<std::size_t>(k)] != groundLhs_.lhs(k)) {
          localViewsConsistent_ = false;
        }
      }
    }
  }

  /// Emits a Rejected ledger event carrying the blocking dual
  /// certificate: the already-admitted instance whose load (or prior
  /// admission of the same demand) blocks this pop. The blocker is
  /// lambda-satisfied by phase 1, so its replayed LHS clears
  /// lambdaMeasured * profit — the paper's dual explanation of the
  /// rejection (tests/provenance_test.cpp replays and checks it).
  void ledgerReject(std::int64_t tuple, InstanceId i, DemandId p,
                    RejectReason reason) {
    LedgerEvent ev;
    ev.demand = p;
    ev.kind = LedgerEventKind::Rejected;
    ev.instance = i;
    ev.tuple = tuple;
    ev.reason = reason;
    if (reason == RejectReason::DemandSatisfied) {
      ev.certInstance = acceptedOfDemand_[static_cast<std::size_t>(p)];
    } else if (reason == RejectReason::CapacityExceeded) {
      // The global loads dominate the owner's local view (they include
      // every accept, the view only the ones it has heard), so the
      // locally blocking edge is saturated here too: the scan always
      // finds a blocker.
      const double h = u_.instance(i).height;
      for (const GlobalEdgeId e : u_.path(i)) {
        if (ledgerEdgeLoad_[static_cast<std::size_t>(e)] + h >
            1.0 + kCapacityTolerance) {
          ev.certInstance = firstLoaderOfEdge_[static_cast<std::size_t>(e)];
          break;
        }
      }
    }
    if (ev.certInstance != kNoInstance) {
      ev.certLhs = groundLhs_.lhs(ev.certInstance);
      ev.certThreshold =
          lambdaMeasured_ * u_.instance(ev.certInstance).profit;
    }
    opt_.ledger->record(ev);
  }

  /// Records an admission and maintains the certificate state: the
  /// demand's admitted instance and the first loader of every path edge.
  void ledgerAccept(std::int64_t tuple, InstanceId i, DemandId p) {
    acceptedOfDemand_[static_cast<std::size_t>(p)] = i;
    const double h = u_.instance(i).height;
    for (const GlobalEdgeId e : u_.path(i)) {
      if (firstLoaderOfEdge_[static_cast<std::size_t>(e)] == kNoInstance) {
        firstLoaderOfEdge_[static_cast<std::size_t>(e)] = i;
      }
      ledgerEdgeLoad_[static_cast<std::size_t>(e)] += h;
    }
    LedgerEvent ev;
    ev.demand = p;
    ev.kind = LedgerEventKind::Admitted;
    ev.instance = i;
    ev.tuple = tuple;
    opt_.ledger->record(ev);
  }

  void runPhase2() {
    announceCrashes(scheduledSteps_, /*phase2=*/true);
    std::int64_t accepts = 0;
    std::int64_t rejects = 0;
    std::size_t sp = stackTuples_.size();
    for (std::int64_t t = scheduledSteps_ - 1; t >= 0; --t) {
      if (sp > 0 && stackTuples_[sp - 1] == t) {
        --sp;
        const std::size_t setEnd = sp + 1 < stackBegin_.size()
                                       ? stackBegin_[sp + 1]
                                       : stackMembers_.size();
        for (std::size_t m = stackBegin_[sp]; m < setEnd; ++m) {
          const InstanceId i = stackMembers_[m];
          const DemandId p = owner(i);
          if (!aliveP2(p)) {
            obs_->onReject(t, i, RejectReason::OwnerCrashed);
            if (ledgerOn_) ledgerReject(t, i, p, RejectReason::OwnerCrashed);
            ++rejects;
            continue;
          }
          if (demandUsed_[static_cast<std::size_t>(p)] != 0) {
            obs_->onReject(t, i, RejectReason::DemandSatisfied);
            if (ledgerOn_) {
              ledgerReject(t, i, p, RejectReason::DemandSatisfied);
            }
            ++rejects;
            continue;
          }
          ProcessorContext& context = *contextOf(p);
          if (!context.capacityOk(u_, i)) {
            obs_->onReject(t, i, RejectReason::CapacityExceeded);
            if (ledgerOn_) {
              ledgerReject(t, i, p, RejectReason::CapacityExceeded);
            }
            ++rejects;
            continue;
          }
          demandUsed_[static_cast<std::size_t>(p)] = 1;
          runProcs_.mark(p);
          context.addLoad(u_, i);
          net_.broadcast({MessageKind::Accept, p, i, 0.0});
          obs_->onAccept(t, i);
          if (ledgerOn_) ledgerAccept(t, i, p);
          ++accepts;
          acceptOrder_.push_back(i);
          profit_ += u_.instance(i).profit;
        }
      }
      net_.endRound();
      // Only processors that received an Accept have loads to update.
      activeProcs_.clear();
      net_.appendActiveInboxes(activeProcs_);
      markRunProcs(activeProcs_);
      forEachParallelWeighted(
          activeProcs_,
          [&](std::int32_t p) {
            return static_cast<std::int64_t>(net_.inbox(p).size());
          },
          [&](std::int32_t p) {
            if (!aliveP2(p)) return;
            ProcessorContext* context = contextOf(p);
            if (context == nullptr) return;
            for (const Message& m : net_.inbox(p)) {
              if (m.kind != MessageKind::Accept) continue;
              context->addLoad(u_, m.instance);
            }
          });
    }
    obs_->onPhase2Complete(accepts, rejects);

    // Leave the per-demand flags and the ledger's certificate state clean
    // for the next run, in O(accepted).
    for (const InstanceId i : acceptOrder_) {
      demandUsed_[static_cast<std::size_t>(owner(i))] = 0;
      if (!ledgerOn_) continue;
      acceptedOfDemand_[static_cast<std::size_t>(owner(i))] = kNoInstance;
      for (const GlobalEdgeId e : u_.path(i)) {
        firstLoaderOfEdge_[static_cast<std::size_t>(e)] = kNoInstance;
        ledgerEdgeLoad_[static_cast<std::size_t>(e)] = 0.0;
      }
    }
  }

  const U& u_;
  const L& lay_;
  Transport& net_;
  /// The construction options: their stage-plan fields bind every run.
  const DistributedOptions fixed_;
  DistributedOptions opt_;  ///< the current run's options
  std::optional<TracingObserver> tracing_;  ///< telemetry adapter, per run
  NullObserver nullObserver_;
  ProtocolObserver* obs_ = &nullObserver_;
  ParallelRunner runner_;
  StagePlan plan_;
  std::int32_t numProc_ = 0;
  std::int32_t stepsPerStage_ = 0;
  std::int64_t scheduledSteps_ = 0;
  /// Runner totals already reported by earlier runs.
  std::int64_t claimsReported_ = 0;
  std::int64_t stealsReported_ = 0;
  bool runInFlight_ = false;  ///< true from run() entry to its return

  // Ground truth for the audit and the reported dual objective.
  DualState groundDual_;
  BasicLhsTracker<U> groundLhs_;

  // Per-processor contexts (null for demands with no instances) plus the
  // owner-indexed lhs views (entry i is written only by owner(i)'s
  // context). runProcs_ lists the processors this run involves.
  std::vector<double> lhsLocal_;
  std::vector<std::unique_ptr<ProcessorContext>> contexts_;
  TouchedIds runProcs_;

  // Faults (uint8, not vector<bool>: read concurrently from shards).
  std::vector<std::uint8_t> crashed_;
  std::vector<DemandId> crashList_;  ///< this run's, ascending
  std::int32_t crashedCount_ = 0;
  bool crashAnnounced_ = false;  ///< onCrash fired (once per run)

  // Phase 2: demands already admitted this run (clean between runs).
  std::vector<std::uint8_t> demandUsed_;

  // Decision provenance (enabled ledger only): global certificate state
  // phase 2 consults to name a rejection's blocker. Empty until a run
  // enables the ledger.
  bool ledgerOn_ = false;
  std::vector<InstanceId> acceptedOfDemand_;
  std::vector<InstanceId> firstLoaderOfEdge_;
  std::vector<double> ledgerEdgeLoad_;

  // Per-step scratch, reused across steps and runs to keep the hot loop
  // allocation-free after warmup.
  std::vector<MisStatus> misStatus_;     ///< Inactive outside a step
  std::vector<std::uint64_t> priority_;  ///< per instance, current round
  std::vector<InstanceId> stageActive_;
  std::vector<InstanceId> unsatisfied_;
  std::vector<InstanceId> undecided_;
  std::vector<InstanceId> joiners_;
  std::vector<InstanceId> misMembers_;
  std::vector<std::vector<InstanceId>> shardLists_;
  std::vector<std::int32_t> activeProcs_;
  /// Scratch for the weighted shard plans (grow-only; reused per round).
  std::vector<std::int64_t> weightScratch_;
  ParallelRunner::ShardPlan weightedPlan_;
  std::vector<PendingRaise> stepRaises_;
  std::int32_t lastLubyRounds_ = 0;

  // The run's restriction: per-group member lists and all instances the
  // run may raise (ascending) — everything on a full run, the warm-start
  // restriction otherwise. Slackness is measured over restricted_.
  std::vector<std::vector<InstanceId>> members_;
  std::vector<InstanceId> restricted_;

  // Phase-1 stack (push order == tuple order; sets sorted ascending),
  // flat: set s is stackMembers_[stackBegin_[s], stackBegin_[s + 1]).
  std::vector<std::int64_t> stackTuples_;
  std::vector<std::size_t> stackBegin_;
  std::vector<InstanceId> stackMembers_;
  std::vector<DualRaiseRecord> raiseLog_;  ///< under recordRaiseLog only

  // Run accounting.
  std::int64_t activeSteps_ = 0;
  std::int64_t raises_ = 0;
  double lambdaMeasured_ = 0;
  bool localViewsConsistent_ = false;
  std::vector<InstanceId> acceptOrder_;
  double profit_ = 0;
};

template <class U, class L>
ProtocolEngine<U, L>::ProtocolEngine(const U& universe, const L& layering,
                                     Transport& transport,
                                     const DistributedOptions& options)
    : impl_(std::make_unique<Impl>(universe, layering, transport, options)) {}

template <class U, class L>
ProtocolEngine<U, L>::~ProtocolEngine() = default;

template <class U, class L>
void ProtocolEngine<U, L>::addProcessor(DemandId d) {
  impl_->addProcessor(d);
}

template <class U, class L>
void ProtocolEngine<U, L>::removeProcessor(DemandId d) {
  impl_->removeProcessor(d);
}

template <class U, class L>
DistributedResult ProtocolEngine<U, L>::run(const DistributedOptions& options,
                                            const WarmStart& warm) {
  return impl_->run(options, warm);
}

template class ProtocolEngine<InstanceUniverse, Layering>;
template class ProtocolEngine<DynamicUniverse, DynamicLayeringView>;

FrameworkConfig centralizedReference(const DistributedOptions& options) {
  FrameworkConfig config;
  config.epsilon = options.epsilon;
  config.raise = options.rule;
  config.schedule = SchedulePolicy::Staged;
  config.hmin = options.hmin;
  config.seed = options.seed;
  config.misRoundBudget = options.misRoundBudget;
  config.fixedSchedule = true;
  config.stepsPerStage = options.stepsPerStage;
  return config;
}

DistributedResult runDistributedOverTransport(
    const InstanceUniverse& universe, const Layering& layering,
    Transport& transport, const DistributedOptions& options) {
  return runDistributedWarmStart(universe, layering, transport, options,
                                 WarmStart{});
}

DistributedResult runDistributedWarmStart(const InstanceUniverse& universe,
                                          const Layering& layering,
                                          Transport& transport,
                                          const DistributedOptions& options,
                                          const WarmStart& warm) {
  ProtocolEngine<InstanceUniverse, Layering> engine(universe, layering,
                                                    transport, options);
  return engine.run(options, warm);
}

PreparedRun prepareUnitTreeRun(const TreeProblem& problem) {
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  universe.buildConflicts();
  Layering layering = buildTreeLayering(problem, universe).layering;
  return {std::move(universe), std::move(layering),
          communicationGraph(problem.access, problem.numNetworks())};
}

PreparedRun prepareUnitLineRun(const LineProblem& problem) {
  InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  universe.buildConflicts();
  Layering layering = buildLineLayering(universe);
  return {std::move(universe), std::move(layering),
          communicationGraph(problem.access, problem.numResources)};
}

DistributedResult runDistributedUnitTree(const TreeProblem& problem,
                                         const DistributedOptions& options) {
  PreparedRun run = prepareUnitTreeRun(problem);
  SimNetwork bus(std::move(run.graph));
  return runDistributedOverTransport(run.universe, run.layering, bus,
                                     options);
}

DistributedResult runDistributedUnitLine(const LineProblem& problem,
                                         const DistributedOptions& options) {
  PreparedRun run = prepareUnitLineRun(problem);
  SimNetwork bus(std::move(run.graph));
  return runDistributedOverTransport(run.universe, run.layering, bus,
                                     options);
}

}  // namespace treesched
