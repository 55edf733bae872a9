#include "online/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/tolerances.hpp"
#include "framework/lhs_tracker.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {

namespace {

// Salt separating the per-epoch protocol seeds from every other keyed
// stream in the library.
constexpr std::uint64_t kEpochSeedSalt = 0x0e90c4;

// Salt for the per-epoch rebalance tie-break seeds (distinct stream
// from the protocol seeds above).
constexpr std::uint64_t kRebalanceSeedSalt = 0x5eba1a;

// Unit buckets for the admission-latency histograms: latencies are
// whole epoch counts, so nearest-rank percentiles are exact until a
// latency reaches the ceiling (where the overflow bucket reports the
// observed max).
std::span<const double> latencyBuckets() {
  static const std::vector<double> buckets = Histogram::unitBuckets(128);
  return buckets;
}

}  // namespace

std::uint64_t epochProtocolSeed(std::uint64_t solverSeed, std::int32_t epoch) {
  return keyedHash(solverSeed, kEpochSeedSalt,
                   static_cast<std::uint64_t>(epoch));
}

DistributedOptions epochProtocolOptions(const OnlineSolverConfig& config,
                                        std::int32_t epoch) {
  DistributedOptions options;
  options.epsilon = config.epsilon;
  options.rule = config.rule;
  options.hmin = config.hmin;
  options.seed = epochProtocolSeed(config.seed, epoch);
  options.threads = config.threads;
  options.misRoundBudget = config.misRoundBudget;
  options.stepsPerStage = config.stepsPerStage;
  options.tracer = config.tracer;
  options.metrics = config.metrics;
  return options;
}

IncrementalSolver::IncrementalSolver(DynamicUniverse& universe,
                                     const OnlineSolverConfig& config,
                                     Transport& transport)
    : u_(universe),
      cfg_(config),
      layering_(universe.layeringView()),
      bus_(transport),
      topo_(requireMutableTopology(transport)),
      dual_(universe),
      lhs_(static_cast<std::size_t>(universe.numInstances()), 0.0),
      raisesOfDemand_(static_cast<std::size_t>(universe.numDemands())),
      arrivalEpoch_(static_cast<std::size_t>(universe.numDemands()), -1),
      admittedEpoch_(static_cast<std::size_t>(universe.numDemands()), -1),
      latencyHist_(latencyBuckets()) {
  if (cfg_.metrics != nullptr) {
    epochsCtr_ = &cfg_.metrics->counter("online.epochs");
    arrivalsCtr_ = &cfg_.metrics->counter("online.arrivals");
    departuresCtr_ = &cfg_.metrics->counter("online.departures");
    admittedCtr_ = &cfg_.metrics->counter("online.admitted_demands");
    activeGauge_ = &cfg_.metrics->gauge("online.active_demands");
    latencyRegHist_ = &cfg_.metrics->histogram(
        "online.admission_latency_epochs", latencyBuckets());
    instancesLiveGauge_ = &cfg_.metrics->gauge("universe.instances_live");
    gcDemandsCtr_ = &cfg_.metrics->counter("universe.gc_demands");
    gcInstancesCtr_ = &cfg_.metrics->counter("universe.gc_instances");
  }
  prevStats_ = u_.stats();
  // Decision provenance: with an ENABLED ledger the solver mirrors the
  // admission oracle into shadow certificate state and hands the sink
  // to the transport (placement/migration events). All of it is guarded
  // so a null or disabled ledger leaves the epoch loop on the exact
  // seed path (the zero-allocation gate in tests/provenance_test.cpp).
  ledgerOn_ = cfg_.ledger != nullptr && cfg_.ledger->enabled();
  if (ledgerOn_) {
    bus_.attachLedger(cfg_.ledger);
    acceptedOfDemand_.assign(static_cast<std::size_t>(u_.numDemands()),
                             kNoInstance);
    firstLoaderOfEdge_.assign(dual_.numEdges(), kNoInstance);
    ledgerEdgeLoad_.assign(dual_.numEdges(), 0.0);
  }
  checkThat(u_.numDemands() > 0, "online solver needs a demand pool",
            __FILE__, __LINE__);
  checkThat(u_.numLiveDemands() == 0,
            "the dynamic universe starts empty (the solver owns the live set)",
            __FILE__, __LINE__);
  checkThat(cfg_.stepsPerStage > 0,
            "online epochs run the fixed schedule (stepsPerStage > 0)",
            __FILE__, __LINE__);
  checkThat(bus_.numProcessors() == u_.numDemands(),
            "transport exposes one endpoint per pool demand", __FILE__,
            __LINE__);
  const CommunicationGraph& graph = topo_.graph();
  for (DemandId d = 0; d < u_.numDemands(); ++d) {
    checkThat(!graph.connected(d),
              "pool demands start disconnected on the live transport",
              __FILE__, __LINE__);
  }
}

void IncrementalSolver::activate(DemandId d) {
  checkThat(!u_.isLive(d), "arrival of an inactive demand", __FILE__,
            __LINE__);
  u_.addDemand(d);
  if (engine_) engine_->addProcessor(d);
  // Warm-start the new instances' dual-constraint LHS from the
  // persistent duals: alpha(d) (zero unless a purge left residue) plus
  // the surviving beta along each instance's path. The static pool path
  // would have accumulated the same sum raise by raise, so the two
  // differ only in floating-point association order — the replay audit
  // (maxLhsDeviationFromReplay) bounds the residue.
  const auto newInstances = u_.instancesOfDemand(d);
  for (const InstanceId i : newInstances) {
    lhs_[static_cast<std::size_t>(i)] = dualLhs(cfg_.rule, u_, dual_, i);
  }
  // A (re-)arrival restarts the demand's SLA clock.
  arrivalEpoch_[static_cast<std::size_t>(d)] = epoch_;
  admittedEpoch_[static_cast<std::size_t>(d)] = -1;

  // Thread the live instance count into the transport's shard-load
  // accounting before placement, so the least-loaded choice below
  // already sees the weight. Wire accounting only; a demand with an
  // empty instance set still costs its endpoint.
  topo_.setDemandWeight(
      d, std::max<std::int64_t>(
             1, static_cast<std::int64_t>(newInstances.size())));

  topo_.connectDemand(d);
}

void IncrementalSolver::deactivate(DemandId d) {
  checkThat(u_.isLive(d), "departure of an active demand", __FILE__,
            __LINE__);
  if (admittedEpoch_[static_cast<std::size_t>(d)] < 0) {
    ++departedUnadmitted_;
  }

  topo_.disconnectDemand(d);

  // Zero the departing instances' pool-dense LHS entries (they still
  // hold other demands' beta contributions on shared edges) and
  // garbage-collect the demand's universe slab. A re-arrival
  // reconstructs the LHS from the duals in activate().
  for (const InstanceId i : u_.instancesOfDemand(d)) {
    lhs_[static_cast<std::size_t>(i)] = 0.0;
  }
  if (engine_) engine_->removeProcessor(d);
  u_.retireDemand(d);
}

void IncrementalSolver::applyRaiseSigned(const RaiseRecord& record,
                                         double sign) {
  const InstanceRecord& rec = u_.instance(record.instance);
  const double alphaInc = sign * record.amounts.alphaIncrement;
  const double betaInc = sign * record.amounts.betaIncrement;
  // Alpha first, then the critical edges — the exact accumulation order
  // of the centralized LhsTracker (whose shared helpers define the
  // update rule), so a post-reset replay reproduces the from-scratch
  // LHS (and hence lambda) bit for bit.
  dual_.raiseAlpha(rec.demand, alphaInc);
  applyAlphaToLhs(u_, rec.demand, alphaInc, lhs_);
  for (const GlobalEdgeId e : u_.critical(record.instance)) {
    dual_.raiseBeta(e, betaInc);
    applyBetaToLhs(u_, cfg_.rule, e, betaInc, lhs_);
  }
}

void IncrementalSolver::purgeRaisesOf(DemandId d) {
  for (const std::int32_t idx : raisesOfDemand_[static_cast<std::size_t>(d)]) {
    RaiseRecord& record = raises_[static_cast<std::size_t>(idx)];
    if (!record.live) continue;
    record.live = false;
    ++deadRaises_;
    applyRaiseSigned(record, -1.0);
    auto& set = stack_[static_cast<std::size_t>(record.stackEntry)];
    const auto pos =
        std::lower_bound(set.begin(), set.end(), record.instance);
    checkThat(pos != set.end() && *pos == record.instance,
              "purged raise present in its stack set", __FILE__, __LINE__);
    set.erase(pos);
  }
  raisesOfDemand_[static_cast<std::size_t>(d)].clear();
}

void IncrementalSolver::resetDualState() {
  // Sparse: lhs_ is zero off the live set (retirement zeroes it), and a
  // departed demand's raise list was emptied by its purge.
  dual_.reset();
  for (const DemandId d : u_.liveDemands()) {
    for (const InstanceId i : u_.instancesOfDemand(d)) {
      lhs_[static_cast<std::size_t>(i)] = 0.0;
    }
    raisesOfDemand_[static_cast<std::size_t>(d)].clear();
  }
  raises_.clear();
  stack_.clear();
  deadRaises_ = 0;
}

void IncrementalSolver::compactStack() {
  // Drop fully-purged tuple sets eagerly (they would otherwise linger
  // until the next full re-solve) and compact the dead raise records out
  // with them, remapping the survivors' set indices in one pass. The
  // pass costs O(live raises), so dead records alone only trigger it
  // once they outnumber the live ones (amortized O(1) per purge, the
  // net/shard.cpp tombstone discipline); an emptied set triggers it
  // immediately — that is the eager-drop guarantee.
  std::vector<std::int32_t> setRemap(stack_.size(), -1);
  std::size_t keptSets = 0;
  for (std::size_t s = 0; s < stack_.size(); ++s) {
    if (stack_[s].empty()) continue;
    setRemap[s] = static_cast<std::int32_t>(keptSets);
    if (keptSets != s) {
      stack_[keptSets] = std::move(stack_[s]);
    }
    ++keptSets;
  }
  if (keptSets == stack_.size() &&
      deadRaises_ * 2 <= static_cast<std::int64_t>(raises_.size())) {
    return;
  }
  stack_.resize(keptSets);

  std::vector<std::int32_t> raiseRemap(raises_.size(), -1);
  std::size_t keptRaises = 0;
  for (std::size_t r = 0; r < raises_.size(); ++r) {
    if (!raises_[r].live) continue;
    RaiseRecord record = raises_[r];
    record.stackEntry = setRemap[static_cast<std::size_t>(record.stackEntry)];
    checkThat(record.stackEntry >= 0, "live raise keeps its stack set",
              __FILE__, __LINE__);
    raiseRemap[r] = static_cast<std::int32_t>(keptRaises);
    raises_[keptRaises] = record;
    ++keptRaises;
  }
  raises_.resize(keptRaises);
  deadRaises_ = 0;
  // Only live demands own raises: a departure's purge empties its list.
  for (const DemandId d : u_.liveDemands()) {
    for (std::int32_t& idx : raisesOfDemand_[static_cast<std::size_t>(d)]) {
      idx = raiseRemap[static_cast<std::size_t>(idx)];
    }
  }
}

void IncrementalSolver::popPersistentStack() {
  // Exactly runTwoPhase's phase 2 over the merged persistent stack:
  // newest set first, members ascending, greedy feasibility-oracle
  // admission. Every member is owned by an active demand (departed
  // demands' raises were purged). With the ledger on, a shadow of the
  // oracle's state (admitted instance per demand, first loader and load
  // per edge) names every rejection's blocker; events buffer until the
  // epoch's lambda is measured so the certificate threshold is final.
  //
  // The oracle and the shadow persist across epochs: both are emptied
  // at the end over the admitted instances' edges (all still live), so
  // the re-pop costs O(stack), never O(pool).
  if (!oracle_) oracle_.emplace(u_);
  BasicFeasibilityOracle<DynamicUniverse>& oracle = *oracle_;
  if (ledgerOn_) rejectionBuffer_.clear();
  for (std::size_t s = stack_.size(); s-- > 0;) {
    for (const InstanceId i : stack_[s]) {
      if (oracle.canAdd(i)) {
        oracle.add(i);
        if (ledgerOn_) ledgerShadowAdmit(i);
      } else if (ledgerOn_) {
        ledgerBufferRejection(i, static_cast<std::int64_t>(s));
      }
    }
  }
  solution_ = oracle.solution();
  profit_ = oracle.profit();
  oracle.clear();
  if (!ledgerOn_) return;
  for (const InstanceId i : solution_.instances) {
    acceptedOfDemand_[static_cast<std::size_t>(u_.instance(i).demand)] =
        kNoInstance;
    for (const GlobalEdgeId e : u_.path(i)) {
      firstLoaderOfEdge_[static_cast<std::size_t>(e)] = kNoInstance;
      ledgerEdgeLoad_[static_cast<std::size_t>(e)] = 0.0;
    }
  }
}

void IncrementalSolver::ledgerShadowAdmit(InstanceId i) {
  const InstanceRecord& rec = u_.instance(i);
  acceptedOfDemand_[static_cast<std::size_t>(rec.demand)] = i;
  for (const GlobalEdgeId e : u_.path(i)) {
    if (firstLoaderOfEdge_[static_cast<std::size_t>(e)] == kNoInstance) {
      firstLoaderOfEdge_[static_cast<std::size_t>(e)] = i;
    }
    ledgerEdgeLoad_[static_cast<std::size_t>(e)] += rec.height;
  }
}

void IncrementalSolver::ledgerBufferRejection(InstanceId i,
                                              std::int64_t stackSet) {
  const InstanceRecord& rec = u_.instance(i);
  LedgerEvent ev;
  ev.demand = rec.demand;
  ev.kind = LedgerEventKind::Rejected;
  ev.instance = i;
  ev.tuple = stackSet;
  const InstanceId prior =
      acceptedOfDemand_[static_cast<std::size_t>(rec.demand)];
  if (prior != kNoInstance) {
    // The oracle checks demand-satisfaction before capacity, so this is
    // exactly why canAdd said no.
    ev.reason = RejectReason::DemandSatisfied;
    ev.certInstance = prior;
  } else {
    ev.reason = RejectReason::CapacityExceeded;
    for (const GlobalEdgeId e : u_.path(i)) {
      if (ledgerEdgeLoad_[static_cast<std::size_t>(e)] + rec.height >
          1.0 + kCapacityTolerance) {
        ev.certInstance = firstLoaderOfEdge_[static_cast<std::size_t>(e)];
        break;
      }
    }
  }
  rejectionBuffer_.push_back(ev);
}

void IncrementalSolver::recordAdmissions(EpochOutcome& outcome) {
  for (const InstanceId i : solution_.instances) {
    const DemandId d = u_.instance(i).demand;
    auto& admitted = admittedEpoch_[static_cast<std::size_t>(d)];
    if (admitted >= 0) continue;
    admitted = epoch_;
    const std::int64_t latency =
        epoch_ - arrivalEpoch_[static_cast<std::size_t>(d)];
    ++admittedCount_;
    latencySumEpochs_ += latency;
    latencyMaxEpochs_ = std::max(latencyMaxEpochs_, latency);
    latencyHist_.record(static_cast<double>(latency));
    if (admittedCtr_ != nullptr) {
      admittedCtr_->add(1);
      latencyRegHist_->record(static_cast<double>(latency));
    }
    if (ledgerOn_) {
      LedgerEvent ev;
      ev.demand = d;
      ev.kind = LedgerEventKind::Admitted;
      ev.instance = i;
      ev.latencyEpochs = latency;
      cfg_.ledger->record(ev);
    }
    ++outcome.newlyAdmittedDemands;
  }
}

AdmissionSla IncrementalSolver::admissionSla() const {
  AdmissionSla sla;
  sla.admittedDemands = admittedCount_;
  sla.departedUnadmitted = departedUnadmitted_;
  sla.meanLatencyEpochs =
      admittedCount_ > 0 ? static_cast<double>(latencySumEpochs_) /
                               static_cast<double>(admittedCount_)
                         : 0.0;
  sla.maxLatencyEpochs = latencyMaxEpochs_;
  sla.p50LatencyEpochs = latencyHist_.percentile(0.5);
  sla.p99LatencyEpochs = latencyHist_.percentile(0.99);
  return sla;
}

std::vector<InstanceId> IncrementalSolver::activeInstanceIds() const {
  std::vector<InstanceId> ids;
  ids.reserve(static_cast<std::size_t>(u_.numLiveInstances()));
  for (const DemandId d : u_.liveDemands()) {
    const auto span = u_.instancesOfDemand(d);
    ids.insert(ids.end(), span.begin(), span.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void IncrementalSolver::publishEpochTelemetry() {
  // The protocol attaches/detaches transport telemetry around each run,
  // so re-attach before recording the per-epoch shard load (idempotent;
  // a transparent lookup after the first epoch). The load time-series
  // must exist whether or not rebalancing is enabled, hence the explicit
  // record here rather than inside rebalanceShards.
  if (cfg_.tracer != nullptr || cfg_.metrics != nullptr) {
    bus_.attachTelemetry(cfg_.tracer, cfg_.metrics);
    bus_.recordPlacementLoad();
  }
  if (cfg_.metrics == nullptr) return;
  const UniverseStats stats = u_.stats();
  instancesLiveGauge_->set(static_cast<double>(u_.numLiveInstances()));
  gcDemandsCtr_->add(stats.gcDemands - prevStats_.gcDemands);
  gcInstancesCtr_->add(stats.gcInstances - prevStats_.gcInstances);
  prevStats_ = stats;
}

EpochOutcome IncrementalSolver::applyEpoch(
    std::span<const DemandId> arrivals, std::span<const DemandId> departures) {
  EpochOutcome outcome;
  outcome.epoch = epoch_;
  outcome.arrivals = static_cast<std::int32_t>(arrivals.size());
  outcome.departures = static_cast<std::int32_t>(departures.size());
  outcome.protocolSeed = epochProtocolSeed(cfg_.seed, epoch_);

  Tracer* tracer = cfg_.tracer;
  const bool trace = tracer != nullptr && tracer->enabled();
  const std::int64_t epochBegin = trace ? tracer->now() : 0;
  // Epoch stamp first: every event below (including the rebalance
  // block's migrations, emitted by the transport) belongs to this epoch.
  if (ledgerOn_) cfg_.ledger->beginEpoch(epoch_);
  if (epochsCtr_ != nullptr) {
    epochsCtr_->add(1);
    arrivalsCtr_->add(static_cast<std::int64_t>(arrivals.size()));
    departuresCtr_->add(static_cast<std::int64_t>(departures.size()));
  }

  // Epoch boundary = the one moment the transport is between rounds, so
  // hot-shard rebalancing happens here, before any mutation or protocol
  // traffic. Placement is wire accounting only: everything below is
  // bit-identical with or without this block.
  if (cfg_.rebalance.enabled) {
    // The protocol attaches/detaches transport telemetry around each run;
    // the rebalance step sits before the run, so re-attach here or the
    // rebalance span is never traced. Idempotent, and a transparent
    // lookup after the first epoch (no allocation).
    if (cfg_.tracer != nullptr || cfg_.metrics != nullptr) {
      bus_.attachTelemetry(cfg_.tracer, cfg_.metrics);
    }
    ShardRebalanceConfig rb = cfg_.rebalance;
    rb.seed = keyedHash(cfg_.rebalance.seed, kRebalanceSeedSalt,
                        static_cast<std::uint64_t>(epoch_));
    const RebalanceOutcome moved = topo_.rebalanceShards(rb);
    outcome.loadVarianceBefore = moved.loadVarianceBefore;
    outcome.loadVarianceAfter = moved.loadVarianceAfter;
    outcome.demandsMigrated = moved.demandsMoved;
  }

  // Zero-churn epoch: nothing changed, so the previous epoch's
  // admission, duals and slackness carry over verbatim — no stack
  // re-pop, no lambda scan, no protocol run.
  if (arrivals.empty() && departures.empty()) {
    outcome.activeDemands = u_.numLiveDemands();
    outcome.activeInstances = u_.numLiveInstances();
    outcome.solution = solution_;
    outcome.profit = profit_;
    outcome.lambdaMeasured = lambdaMeasured_;
    outcome.dualObjective = dualObjective_;
    outcome.dualUpperBound =
        lambdaMeasured_ > 0 ? dualObjective_ / lambdaMeasured_
                            : std::numeric_limits<double>::infinity();
    if (activeGauge_ != nullptr) {
      activeGauge_->set(static_cast<double>(u_.numLiveDemands()));
    }
    publishEpochTelemetry();
    if (trace) {
      tracer->span("online_epoch", "online", 0, epochBegin,
                   {{"epoch", outcome.epoch}});
    }
    if (cfg_.series != nullptr) cfg_.series->snapshot(outcome.epoch);
    ++epoch_;
    return outcome;
  }

  // Networks whose demand population changes this epoch — the changed
  // set that defines the affected region.
  const auto& access = u_.access();
  changedNetworks_.clear();
  for (const DemandId d : departures) {
    checkIndex(d, u_.numDemands(), "departing demand");
    const auto& nets = access[static_cast<std::size_t>(d)];
    changedNetworks_.insert(changedNetworks_.end(), nets.begin(), nets.end());
  }
  for (const DemandId d : arrivals) {
    checkIndex(d, u_.numDemands(), "arriving demand");
    const auto& nets = access[static_cast<std::size_t>(d)];
    changedNetworks_.insert(changedNetworks_.end(), nets.begin(), nets.end());
  }
  std::sort(changedNetworks_.begin(), changedNetworks_.end());
  changedNetworks_.erase(
      std::unique(changedNetworks_.begin(), changedNetworks_.end()),
      changedNetworks_.end());

  // Departures first (their raises purge exactly, their slabs
  // garbage-collect; fully-purged stack sets compact away eagerly), then
  // arrivals extend the universe and the live communication graph.
  const std::int64_t mutateBegin = trace ? tracer->now() : 0;
  for (const DemandId d : departures) {
    if (ledgerOn_) {
      // Emitted before the purge so the raw-order certificate replay
      // subtracts the demand's raises exactly where the solver does.
      LedgerEvent ev;
      ev.demand = d;
      ev.kind = LedgerEventKind::Departure;
      ev.admitted = admittedEpoch_[static_cast<std::size_t>(d)] >= 0;
      cfg_.ledger->record(ev);
    }
    purgeRaisesOf(d);
    deactivate(d);
  }
  if (!departures.empty()) {
    compactStack();
  }
  for (const DemandId d : arrivals) {
    if (ledgerOn_) {
      LedgerEvent ev;
      ev.demand = d;
      ev.kind = LedgerEventKind::Arrival;
      cfg_.ledger->record(ev);
    }
    activate(d);
  }
  if (trace) {
    tracer->span("mutate", "online", 0, mutateBegin,
                 {{"epoch", outcome.epoch},
                  {"arrivals", outcome.arrivals},
                  {"departures", outcome.departures}});
  }

  // Affected region: active demands on a changed network — the live
  // graph's members, since exactly the live demands are connected.
  affected_.clear();
  const CommunicationGraph& graph = topo_.graph();
  for (const std::int32_t t : changedNetworks_) {
    checkIndex(t, graph.numNetworks(), "changed network on the live graph");
    const auto members = graph.members(t);
    affected_.insert(affected_.end(), members.begin(), members.end());
  }
  std::sort(affected_.begin(), affected_.end());
  affected_.erase(std::unique(affected_.begin(), affected_.end()),
                  affected_.end());

  outcome.activeDemands = u_.numLiveDemands();
  outcome.activeInstances = u_.numLiveInstances();
  outcome.affectedDemands = static_cast<std::int32_t>(affected_.size());
  outcome.fullResolve =
      outcome.activeDemands > 0 &&
      static_cast<std::int32_t>(affected_.size()) == outcome.activeDemands;

  if (outcome.fullResolve) {
    // The whole instance is affected: drop the warm state and solve from
    // scratch — this is the epoch the equivalence gate compares bit for
    // bit against runTwoPhaseRestricted on the active set.
    resetDualState();
  }
  restricted_.clear();
  for (const DemandId d : affected_) {
    const auto span = u_.instancesOfDemand(d);
    restricted_.insert(restricted_.end(), span.begin(), span.end());
  }
  std::sort(restricted_.begin(), restricted_.end());
  outcome.affectedInstances = static_cast<std::int64_t>(restricted_.size());
  outcome.resolveFraction =
      outcome.activeInstances > 0
          ? static_cast<double>(restricted_.size()) /
                static_cast<double>(outcome.activeInstances)
          : 0.0;

  if (!restricted_.empty()) {
    DistributedOptions options = epochProtocolOptions(cfg_, epoch_);
    options.recordRaiseLog = true;

    WarmStart warm;
    warm.activeInstances = restricted_;
    if (!outcome.fullResolve) {
      warm.priorLhs = lhs_;
    }

    if (!engine_) {
      // First protocol run: the engine's pool-sized arrays and thread
      // pool are allocated here, once, with the contexts of every demand
      // live now; later arrivals add theirs in activate().
      engine_ = std::make_unique<
          ProtocolEngine<DynamicUniverse, DynamicLayeringView>>(
          u_, layering_, bus_, options);
    }
    const std::int64_t roundsBefore = bus_.stats().rounds;
    const std::int64_t messagesBefore = bus_.stats().messages;
    const DistributedResult run = engine_->run(options, warm);
    outcome.raises = run.raises;
    outcome.localViewsConsistent = run.localViewsConsistent;
    outcome.rounds = bus_.stats().rounds - roundsBefore;
    outcome.messages = bus_.stats().messages - messagesBefore;
    outcome.engineClaims = run.engineClaims;
    outcome.engineSteals = run.engineSteals;

    // Replay the epoch's raises into the persistent duals/LHS and append
    // its stack sets (one per schedule tuple that raised).
    std::int64_t lastTuple = -1;
    for (const DualRaiseRecord& entry : run.raiseLog) {
      if (entry.tuple != lastTuple) {
        stack_.emplace_back();
        lastTuple = entry.tuple;
      }
      RaiseRecord record;
      record.instance = entry.instance;
      record.amounts = {entry.alphaIncrement, entry.betaIncrement};
      record.stackEntry = static_cast<std::int32_t>(stack_.size()) - 1;
      record.live = true;
      stack_.back().push_back(entry.instance);
      raisesOfDemand_[static_cast<std::size_t>(
                          u_.instance(entry.instance).demand)]
          .push_back(static_cast<std::int32_t>(raises_.size()));
      raises_.push_back(record);
      applyRaiseSigned(record, 1.0);
      if (ledgerOn_) {
        LedgerEvent ev;
        ev.demand = u_.instance(entry.instance).demand;
        ev.kind = LedgerEventKind::DualRaise;
        ev.instance = entry.instance;
        ev.tuple = entry.tuple;
        ev.alphaIncrement = entry.alphaIncrement;
        ev.betaIncrement = entry.betaIncrement;
        cfg_.ledger->record(ev);
      }
    }
  }

  // Admission: phase 2 over the merged persistent stack.
  const std::int64_t admitBegin = trace ? tracer->now() : 0;
  popPersistentStack();
  outcome.solution = solution_;
  outcome.profit = profit_;
  recordAdmissions(outcome);
  if (trace) {
    tracer->span("admit", "online", 0, admitBegin,
                 {{"epoch", outcome.epoch},
                  {"accepted", static_cast<std::int64_t>(
                       solution_.instances.size())},
                  {"newly_admitted", outcome.newlyAdmittedDemands}});
  }

  // Slackness over the whole active set (warm epochs inherit the old
  // epochs' satisfaction; the dual pair scaled by lambda is feasible for
  // the active universe, so objective / lambda upper-bounds OPT). The
  // scan walks the live demands in whatever order the universe keeps
  // them — a minimum does not depend on it — and the objective sums only
  // the duals ever raised.
  const std::int64_t certifyBegin = trace ? tracer->now() : 0;
  double lambda = std::numeric_limits<double>::infinity();
  bool any = false;
  for (const DemandId d : u_.liveDemands()) {
    for (const InstanceId i : u_.instancesOfDemand(d)) {
      any = true;
      lambda = std::min(lambda, lhs_[static_cast<std::size_t>(i)] /
                                    u_.instance(i).profit);
    }
  }
  lambdaMeasured_ = any ? lambda : 1.0;
  dualObjective_ = dual_.objective();
  if (trace) {
    tracer->span("certify", "online", 0, certifyBegin,
                 {{"epoch", outcome.epoch},
                  {"active_instances", outcome.activeInstances}});
  }
  // Certificates finalize against THIS epoch's measured lambda: the
  // blocker is an admitted (hence lambda-satisfied) instance, so its
  // LHS clears lambda * profit — the dual explanation replay checks.
  if (ledgerOn_) {
    for (LedgerEvent& ev : rejectionBuffer_) {
      if (ev.certInstance != kNoInstance) {
        ev.certLhs = lhs_[static_cast<std::size_t>(ev.certInstance)];
        ev.certThreshold =
            lambdaMeasured_ * u_.instance(ev.certInstance).profit;
      }
      cfg_.ledger->record(ev);
    }
    rejectionBuffer_.clear();
  }
  outcome.lambdaMeasured = lambdaMeasured_;
  outcome.dualObjective = dualObjective_;
  outcome.dualUpperBound =
      outcome.lambdaMeasured > 0
          ? outcome.dualObjective / outcome.lambdaMeasured
          : std::numeric_limits<double>::infinity();

  if (activeGauge_ != nullptr) {
    activeGauge_->set(static_cast<double>(u_.numLiveDemands()));
  }
  publishEpochTelemetry();
  if (trace) {
    tracer->span("online_epoch", "online", 0, epochBegin,
                 {{"epoch", outcome.epoch},
                  {"affected_instances", outcome.affectedInstances},
                  {"full_resolve", outcome.fullResolve ? 1 : 0}});
  }
  if (cfg_.series != nullptr) cfg_.series->snapshot(outcome.epoch);
  ++epoch_;
  return outcome;
}

double IncrementalSolver::maxLhsDeviationFromReplay() const {
  std::vector<double> replay(lhs_.size(), 0.0);
  for (const RaiseRecord& record : raises_) {
    if (!record.live) continue;
    const InstanceRecord& rec = u_.instance(record.instance);
    applyAlphaToLhs(u_, rec.demand, record.amounts.alphaIncrement, replay);
    for (const GlobalEdgeId e : u_.critical(record.instance)) {
      applyBetaToLhs(u_, cfg_.rule, e, record.amounts.betaIncrement, replay);
    }
  }
  double deviation = 0;
  for (const DemandId d : u_.liveDemands()) {
    for (const InstanceId i : u_.instancesOfDemand(d)) {
      deviation = std::max(
          deviation, std::abs(replay[static_cast<std::size_t>(i)] -
                              lhs_[static_cast<std::size_t>(i)]));
    }
  }
  return deviation;
}

}  // namespace treesched
