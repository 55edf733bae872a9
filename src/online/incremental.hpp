// Warm-started incremental epoch re-solver (the online tentpole).
//
// The solver owns a *dynamic* universe (core/dynamic_universe.hpp):
// the pool id space is fixed, but instances, edge paths, conflicts and
// layering are materialized only for live demands. Demands arrive and
// depart in epoch batches; each batch triggers an incremental re-solve
// instead of a from-scratch run:
//
//  * Arrival of d extends the universe in O(affected) — addDemand
//    materializes d's instances with their pool-stable ids, layers them
//    and splices them into the live conflict relation — and warm-starts
//    each new instance's dual-constraint LHS from the persistent duals
//    (alpha(d) + the surviving beta along its path). No pool-sized
//    structure is ever built, so per-arrival cost is independent of
//    pool size and steady-state memory tracks live demands.
//  * The communication graph is extended incrementally — arrival of d
//    adds node d plus edges to active demands sharing a network (via a
//    shared-network edge count, so duplicated shared networks never
//    duplicate edges); departure removes d's edges. Never a full
//    rebuild, and the transport (with its warmed-up buffers and
//    cumulative stats) persists across every epoch. The solver speaks
//    only the Transport + MutableTopology contracts (net/transport.hpp):
//    the same solver runs over the synchronous bus, the asynchronous
//    lossy wire and the sharded wire (net/live_transport.hpp), and every
//    epoch is bit-identical across them. Each arrival's live instance
//    count is threaded into the transport as its placement weight
//    (MutableTopology::setDemandWeight) so shard load means instances
//    hosted, not demands hosted.
//  * Departures are *purged exactly*: every surviving dual is the dual
//    of a raise owned by a still-active demand. A departed demand's
//    alpha/beta increments are subtracted and its instances leave the
//    persistent phase-1 stack; tuple sets the purge empties are dropped
//    eagerly (with the dead raise records), so the stack never
//    accumulates fully-purged sets between full re-solves. The demand's
//    universe slab is then garbage-collected (retireDemand) with the
//    same exactness discipline — every symmetric reference removed,
//    checked. Locality makes the purge safe: a purged beta lives on a
//    critical edge of the departed demand, so only demands sharing one
//    of its networks — the affected region by definition — can see
//    their LHS move.
//  * The distributed protocol then re-runs ONLY over the affected
//    region (active demands whose accessible networks intersect the
//    changed networks), warm-started from a view of the surviving LHS.
//    The solver owns ONE protocol engine (dist/protocol.hpp
//    ProtocolEngine over the dynamic universe) for its whole life: its
//    pool-sized arrays and thread pool are allocated at the first run,
//    processor contexts are built on arrival and dropped on departure,
//    and each run resets only what the previous run touched — so an
//    epoch costs O(affected region), not O(pool). Unaffected
//    instances keep their lambda-satisfaction from earlier epochs, so
//    the slackness invariant holds over the whole active set after
//    every epoch.
//  * Phase 2 re-pops the persistent stack (old surviving sets + the
//    epoch's new sets) with the centralized feasibility oracle — the
//    admission step. Because every surviving raise's instance is popped
//    and every active instance is lambda-satisfied, the paper's
//    approximation argument goes through unchanged: epoch profit >=
//    val(alpha, beta) / bound >= lambda * OPT(active) / bound.
//
// SLA accounting: the solver tracks, per demand, the number of epochs
// from arrival to first admission (admissionSla()); a demand departing
// unadmitted is counted separately, and a re-arrival restarts its clock.
//
// Equivalence gates: when the affected region is the whole active set
// the solver drops the warm state and the epoch is bit-identical to
// runTwoPhaseRestricted on the surviving demand set (tests/online_test);
// for any fixed trace the per-epoch outcomes over the async lossy
// and sharded transports are bit-identical to the synchronous bus
// (tests/online_transport_test); and the dynamic universe the epochs
// run over is bit-identical to the from-scratch build restricted to the
// live set (tests/dynamic_universe_test).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/dynamic_universe.hpp"
#include "core/solution.hpp"
#include "dist/protocol.hpp"
#include "framework/dual_state.hpp"
#include "framework/raise_policy.hpp"
#include "net/transport.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"

namespace treesched {

class EpochSeries;

struct OnlineSolverConfig {
  double epsilon = 0.3;
  RaiseRule rule = RaiseRule::Unit;
  double hmin = 1.0;
  std::uint64_t seed = 1;
  std::int32_t misRoundBudget = 4;
  /// Fixed-schedule steps per stage (> 0: the online path always runs
  /// the fixed global schedule so epochs are comparable and the
  /// full-region gate can be bit-identical).
  std::int32_t stepsPerStage = 2;
  std::int32_t threads = 1;
  /// Telemetry plane (src/obs/): passed through to every epoch's
  /// protocol run and used for the solver's own online.* and universe.*
  /// instruments and epoch/mutate/admit spans. Strictly read-only
  /// observation — attaching either never changes an epoch's outcome.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Decision provenance ledger (obs/ledger.hpp). When set AND enabled
  /// the solver records the full per-demand lifecycle — arrival,
  /// placement/migration (via Transport::attachLedger), every surviving
  /// dual raise (replayed from the epoch's raise log), admission (first
  /// only, with latency) and rejection (with the blocking dual
  /// certificate finalized against the epoch's measured lambda), and
  /// departure. Same read-only + disabled-path-allocation-free contract
  /// as the tracer (tests/provenance_test.cpp gates both). Note the
  /// ledger is NOT forwarded into the per-epoch protocol run: phase-2
  /// verdicts there are provisional online — the persistent-stack
  /// re-pop below is the authoritative admission.
  LedgerSink* ledger = nullptr;
  /// Per-epoch time-series sink (obs/timeseries.hpp): when set, the
  /// solver snapshots `metrics` into one JSONL row at the end of every
  /// applyEpoch call. Read-only.
  EpochSeries* series = nullptr;
  /// Epoch-boundary hot-shard rebalancing (net/transport.hpp). When
  /// enabled, every epoch starts with a MutableTopology::rebalanceShards
  /// call (seed re-keyed per epoch); transports without a live sharded
  /// placement no-op. Placement is wire accounting — enabling this never
  /// changes any epoch's schedule (tests/rebalance_test.cpp gates it).
  ShardRebalanceConfig rebalance;
};

/// Everything one epoch reports. `solution` is the admitted set over the
/// current active demands (acceptance order).
struct EpochOutcome {
  std::int32_t epoch = 0;
  std::uint64_t protocolSeed = 0;  ///< seed of this epoch's protocol run
  std::int32_t arrivals = 0;
  std::int32_t departures = 0;
  std::int32_t activeDemands = 0;
  std::int64_t activeInstances = 0;
  std::int32_t affectedDemands = 0;
  std::int64_t affectedInstances = 0;
  /// |affected instances| / |active instances| — the work the epoch
  /// re-solved relative to a from-scratch run (1 on a full re-solve,
  /// 0 on a no-churn epoch).
  double resolveFraction = 0;
  /// True when the affected region covered every active demand: the warm
  /// state was dropped and the epoch equals the from-scratch solve bit
  /// for bit.
  bool fullResolve = false;
  Solution solution;  ///< acceptance order (phase-2 pop order)
  double profit = 0;
  double dualObjective = 0;
  double dualUpperBound = 0;
  double lambdaMeasured = 0;
  std::int64_t raises = 0;
  /// The protocol run's audit verdict: every surviving processor's local
  /// dual view equals the ground truth of the run's raises. True when
  /// the epoch ran no protocol (zero churn, or nothing affected). It is
  /// the guard against stale state in the solver's persistent engine.
  bool localViewsConsistent = true;
  std::int64_t rounds = 0;    ///< protocol rounds spent by this epoch
  std::int64_t messages = 0;  ///< messages delivered during this epoch
  /// Active demands first admitted by this epoch (their SLA clocks
  /// stop here).
  std::int32_t newlyAdmittedDemands = 0;
  // ---- Hot-shard rebalancing + engine scaling accounting ----
  // Per-processor live-load variance around this epoch's rebalance step
  // (both zero when rebalancing is disabled or the transport has no live
  // sharded placement), plus the parallel engine's shard-claim tallies.
  // All four are performance accounting only — equivalence gates compare
  // the schedule fields above, never these.
  double loadVarianceBefore = 0;
  double loadVarianceAfter = 0;
  std::int32_t demandsMigrated = 0;
  std::int64_t engineClaims = 0;  ///< shards executed (owned + stolen)
  std::int64_t engineSteals = 0;  ///< shards stolen from another worker
};

/// Per-epoch protocol seed — the one derivation every online engine
/// shares (the incremental solver and the policy registry's scheduler
/// epoch loop, policy/online_policy.hpp), so their epoch runs are
/// seed-comparable for a given solver seed.
std::uint64_t epochProtocolSeed(std::uint64_t solverSeed, std::int32_t epoch);

/// Protocol options of epoch `epoch` under `config`: the solver's
/// algorithmic knobs, threads, tracer and registry, seeded with
/// epochProtocolSeed. Each epoch loop adds what it needs on top (the
/// incremental solver its raise log, the registry loop its ledger).
DistributedOptions epochProtocolOptions(const OnlineSolverConfig& config,
                                        std::int32_t epoch);

/// Aggregate per-demand admission-latency statistics (epochs from
/// arrival to first admission). Re-arrivals restart the clock and count
/// as fresh admissions. Scope: demands the solver actually saw — a
/// demand whose arrival and departure were netted away inside one epoch
/// window (online/churn_engine.hpp batchTrace) never reaches the solver
/// and appears in neither counter.
struct AdmissionSla {
  std::int64_t admittedDemands = 0;     ///< admission events observed
  std::int64_t departedUnadmitted = 0;  ///< departures never admitted
  double meanLatencyEpochs = 0;         ///< mean over admission events
  std::int64_t maxLatencyEpochs = 0;
  /// Nearest-rank latency percentiles over the admission events, from
  /// the solver's unit-bucket histogram — exact for latencies below the
  /// bucket ceiling (values at the ceiling saturate to the observed
  /// max). Zero while no admission has happened.
  double p50LatencyEpochs = 0;
  double p99LatencyEpochs = 0;
};

class IncrementalSolver {
 public:
  /// `universe` must start with zero live demands (the solver owns the
  /// live set from here on); `transport` must expose one endpoint per
  /// pool demand, all isolated, and support MutableTopology
  /// (net/live_transport.hpp builds one). The references must outlive
  /// the solver.
  IncrementalSolver(DynamicUniverse& universe,
                    const OnlineSolverConfig& config, Transport& transport);

  /// Admits one epoch batch: `arrivals` must be inactive pool demands,
  /// `departures` active ones (both duplicate-free). Returns the epoch
  /// report; the admitted solution is also retained (solution()).
  EpochOutcome applyEpoch(std::span<const DemandId> arrivals,
                          std::span<const DemandId> departures);

  std::int32_t numEpochs() const { return epoch_; }
  std::int32_t activeDemands() const { return u_.numLiveDemands(); }
  bool isActive(DemandId d) const { return u_.isLive(d); }
  /// Active instances, ascending (rebuilt on demand).
  std::vector<InstanceId> activeInstanceIds() const;
  const Solution& solution() const { return solution_; }
  double profit() const { return profit_; }
  const Transport& transport() const { return bus_; }
  const DynamicUniverse& universe() const { return u_; }
  double lhs(InstanceId i) const {
    return lhs_[static_cast<std::size_t>(i)];
  }

  // ---- Phase-1 stack accounting (compaction regression surface) ----
  /// Tuple sets currently on the persistent stack; fully-purged sets are
  /// dropped eagerly, so this never exceeds the sets with live members.
  std::int64_t stackSets() const {
    return static_cast<std::int64_t>(stack_.size());
  }
  /// Raise records currently stored. Purged records compact away with
  /// their sets (or once they outnumber the live records — amortized),
  /// so at most half the stored records are ever dead.
  std::int64_t storedRaises() const {
    return static_cast<std::int64_t>(raises_.size());
  }

  // ---- SLA accounting ----
  AdmissionSla admissionSla() const;
  /// Epochs from demand `d`'s (latest) arrival to its first admission;
  /// -1 while never admitted since that arrival.
  std::int64_t admissionLatencyEpochs(DemandId d) const {
    const auto admitted = admittedEpoch_[static_cast<std::size_t>(d)];
    if (admitted < 0) return -1;
    return admitted - arrivalEpoch_[static_cast<std::size_t>(d)];
  }

  /// Test audit: max absolute deviation between the persistent LHS of
  /// active instances and a fresh replay of the surviving raise log
  /// (bounds the floating-point residue of departure purges and of the
  /// arrival-time LHS reconstruction from the persistent duals).
  double maxLhsDeviationFromReplay() const;

 private:
  struct RaiseRecord {
    InstanceId instance = kNoInstance;
    RaiseAmounts amounts;
    std::int32_t stackEntry = -1;
    bool live = false;
  };

  static std::uint64_t pairKey(std::int32_t a, std::int32_t b);

  void activate(DemandId d);
  void deactivate(DemandId d);
  void purgeRaisesOf(DemandId d);
  void applyRaiseSigned(const RaiseRecord& record, double sign);
  void resetDualState();
  void compactStack();
  void popPersistentStack();
  void recordAdmissions(EpochOutcome& outcome);
  void ledgerShadowAdmit(InstanceId i);
  void ledgerBufferRejection(InstanceId i, std::int64_t stackSet);
  void publishEpochTelemetry();

  DynamicUniverse& u_;  ///< live universe, mutated by the epoch batches
  OnlineSolverConfig cfg_;
  DynamicLayeringView layering_;  ///< the universe's, for the engine

  Transport& bus_;         ///< the live transport, persistent across epochs
  MutableTopology& topo_;  ///< its mutation facet (same object)

  // Incremental communication-graph bookkeeping (the live set itself is
  // the universe's).
  std::vector<std::vector<DemandId>> networkMembers_;  ///< active, sorted
  /// Shared-network count per unordered demand pair with >= 1 common
  /// active network; an edge exists while the count is positive.
  std::unordered_map<std::uint64_t, std::int32_t> sharedNetworks_;

  /// The protocol engine every epoch runs on, and the admission oracle
  /// of the persistent-stack re-pop. Both hold pool-sized arrays, so
  /// both are built at the first epoch that needs them, never again.
  std::unique_ptr<ProtocolEngine<DynamicUniverse, DynamicLayeringView>>
      engine_;
  std::optional<BasicFeasibilityOracle<DynamicUniverse>> oracle_;

  // Persistent primal-dual state: duals/LHS of the surviving raises, the
  // surviving raise log, and the phase-1 stack across epochs. lhs_ is
  // pool-dense (the WarmStart::priorLhs contract); entries of non-live
  // instances are zeroed at retirement and reconstructed from the duals
  // at (re-)arrival.
  DualState dual_;
  std::vector<double> lhs_;
  std::vector<RaiseRecord> raises_;
  std::vector<std::vector<std::int32_t>> raisesOfDemand_;
  std::vector<std::vector<InstanceId>> stack_;
  std::int64_t deadRaises_ = 0;  ///< purged records awaiting compaction

  Solution solution_;
  double profit_ = 0;
  double lambdaMeasured_ = 1.0;
  double dualObjective_ = 0;
  std::int32_t epoch_ = 0;

  // SLA clocks: per demand, epoch of the latest arrival and of the first
  // admission since (-1 while unadmitted), plus the running aggregates.
  std::vector<std::int64_t> arrivalEpoch_;
  std::vector<std::int64_t> admittedEpoch_;
  std::int64_t admittedCount_ = 0;
  std::int64_t departedUnadmitted_ = 0;
  std::int64_t latencySumEpochs_ = 0;
  std::int64_t latencyMaxEpochs_ = 0;
  /// Unit-bucket admission-latency histogram backing the SLA
  /// percentiles (always maintained; integer latencies make the
  /// nearest-rank percentile exact below the bucket ceiling).
  Histogram latencyHist_;

  // Registry instruments (null when cfg_.metrics is unset).
  Counter* epochsCtr_ = nullptr;
  Counter* arrivalsCtr_ = nullptr;
  Counter* departuresCtr_ = nullptr;
  Counter* admittedCtr_ = nullptr;
  Gauge* activeGauge_ = nullptr;
  Histogram* latencyRegHist_ = nullptr;
  // Universe instruments (dynamic-universe maintenance telemetry).
  Gauge* instancesLiveGauge_ = nullptr;
  Counter* gcDemandsCtr_ = nullptr;
  Counter* gcInstancesCtr_ = nullptr;
  /// Universe stats at the last publish — the per-epoch deltas feed the
  /// cumulative universe.* counters.
  UniverseStats prevStats_;

  // Scratch (reused per epoch).
  std::vector<std::int32_t> changedNetworks_;
  std::vector<DemandId> affected_;
  std::vector<InstanceId> restricted_;
  std::vector<std::int32_t> newNeighbors_;

  // Decision provenance (enabled ledger only; all empty otherwise).
  // The admission re-pop mirrors the feasibility oracle into this
  // shadow state so a rejection can name its blocker; rejection events
  // buffer until the epoch's lambda is measured (the certificate
  // threshold is lambda * profit of the blocker).
  bool ledgerOn_ = false;
  std::vector<InstanceId> acceptedOfDemand_;
  std::vector<InstanceId> firstLoaderOfEdge_;
  std::vector<double> ledgerEdgeLoad_;
  std::vector<LedgerEvent> rejectionBuffer_;
};

}  // namespace treesched
