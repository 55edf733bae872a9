// Distributed implementation of the two-phase framework (paper §5) over
// simulated message passing.
//
// Every processor owns one demand and sees the world only through O(M)
// messages from neighbours sharing a network. Phase 1 follows the *fixed
// global schedule*: every processor walks the same (epoch, stage, step)
// tuples; each step runs B Luby rounds of MIS over the unsatisfied
// instances of the scheduled group (2 communication rounds per Luby round:
// one to announce undecided instances, one to announce joiners) and one
// raise round in which MIS members broadcast their dual increments — 2B+1
// rounds per step. Phase 2 pops the tuples in reverse, one communication
// round each, greedily accepting pushed instances and broadcasting accepts.
//
// Under the same seed, round budget and steps-per-stage the run is
// bit-identical to the centralized `runTwoPhase` with
// `FrameworkConfig::fixedSchedule` (see two_phase.hpp): priorities are
// seed-keyed hashes, inboxes are consumed in canonical order, and every
// floating-point accumulation happens in the same sequence on both sides.
//
// Beyond the paper's reliable-processor model the simulator injects
// crash-stop faults: listed processors fall silent from a given schedule
// tuple onward (and stay dead through phase 2). Survivors keep exchanging
// messages and must still produce a feasible schedule with consistent
// local dual views.
//
// Execution engine: per-processor state lives in reentrant
// ProcessorContexts with no hidden shared state, rounds iterate per-step
// active sets (only undecided instances / processors that received
// messages) instead of scanning all processors, and the independent
// per-processor decisions of a round run on a fixed thread pool
// (engine/parallel_runner.hpp) when DistributedOptions::threads > 1 —
// with bit-identical results at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/line_problem.hpp"
#include "core/solution.hpp"
#include "core/tree_problem.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/observer.hpp"
#include "framework/raise_policy.hpp"
#include "framework/two_phase.hpp"
#include "net/transport.hpp"

namespace treesched {

class Tracer;
class MetricsRegistry;
class LedgerSink;

struct DistributedOptions {
  double epsilon = 0.1;  ///< staged plan: lambda target = 1 - eps
  RaiseRule rule = RaiseRule::Unit;
  double hmin = 1.0;       ///< min height, used by the narrow staged plan
  std::uint64_t seed = 1;  ///< drives MIS priorities (deterministic)
  /// Worker threads for the intra-round parallel sections (MIS decisions,
  /// raise/accept application, inbox delivery). The result is bit-identical
  /// at ANY value — shard merges are by shard id, never by thread
  /// completion order — so 1 (the serial engine) is the reference and
  /// higher values are pure wall-clock (tests/parallel_equivalence_test).
  std::int32_t threads = 1;
  /// Luby rounds per step; <= 0 runs each MIS to completion (maximal).
  std::int32_t misRoundBudget = 0;
  /// Steps per stage; 0 derives c*log(pmax/pmin) exactly like the
  /// centralized engine under fixedSchedule.
  std::int32_t stepsPerStage = 0;
  /// Crash-stop fault injection: these processors (demand ids) fall silent
  /// at the start of schedule tuple `crashAtTuple` (0-based global step
  /// index) and remain dead for the rest of the run, including phase 2.
  /// A value past the last tuple crashes them at the start of phase 2.
  /// Empty list: no faults.
  std::vector<DemandId> crashProcessors;
  std::int64_t crashAtTuple = 0;
  /// Records every phase-1 raise into DistributedResult::raiseLog (the
  /// online incremental re-solver replays it into its persistent duals).
  /// Off by default: the log grows with the raise count.
  bool recordRaiseLog = false;
  /// Optional event hooks; nullptr observes nothing.
  ProtocolObserver* observer = nullptr;
  /// Telemetry plane (src/obs/): when set, the engine wraps `observer`
  /// in a TracingObserver feeding trace spans / registry metrics, and
  /// attaches both to the transport and the thread pool. Strictly
  /// read-only observation — attaching either never changes the
  /// schedule (the bit-identity gates run with live sinks attached).
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Decision provenance ledger (obs/ledger.hpp): when set AND enabled,
  /// the engine records dual raises, phase-2 verdicts (rejections carry
  /// the blocking dual certificate) and crash events. Same read-only
  /// contract as the tracer; a disabled sink costs nothing
  /// (tests/provenance_test.cpp gates both).
  LedgerSink* ledger = nullptr;
};

/// The centralized configuration a protocol run under `options` is
/// bit-identical to: the staged plan on the fixed global schedule, with
/// the same epsilon, raise rule, hmin, seed, MIS budget and steps per
/// stage (the execution extras have no centralized counterpart).
FrameworkConfig centralizedReference(const DistributedOptions& options);

/// One phase-1 raise as executed, in raise order. Raises of one schedule
/// tuple share the tuple index and form one stack set (members ascending),
/// so the phase-1 stack is recoverable from the log by grouping on
/// `tuple`.
struct DualRaiseRecord {
  std::int64_t tuple = 0;
  InstanceId instance = kNoInstance;
  double alphaIncrement = 0;
  double betaIncrement = 0;
};

/// Prior dual state + restricted active set for an incremental epoch
/// re-solve (src/online/). The protocol raises only `activeInstances`
/// (phase 1) and accepts only from the raise sets it pushed itself
/// (phase 2); `priorLhs` warm-starts every restricted instance's
/// dual-constraint LHS from the surviving duals of the previous
/// solution, so an instance already lambda-satisfied by old raises is
/// never touched again. Both members are views: the caller's arrays must
/// outlive the run, and nothing pool-sized is copied.
struct WarmStart {
  /// Instances the run may raise, sorted ascending. Empty = every
  /// instance (the classic full run).
  std::span<const InstanceId> activeInstances;
  /// Per-instance prior LHS, indexed by InstanceId over the whole
  /// universe; only the entries of `activeInstances` are read. Empty =
  /// all zeros (cold start).
  std::span<const double> priorLhs;
};

struct DistributedResult {
  /// Accepted instances, sorted ascending (collection order is by
  /// processor, not meaningful distributively).
  Solution solution;
  double profit = 0;
  double dualObjective = 0;   ///< val(alpha, beta) over all raises
  double dualUpperBound = 0;  ///< val / lambdaMeasured >= p(OPT)
  double lambdaTarget = 0;
  /// Min over surviving instances of lhs / p after phase 1.
  double lambdaMeasured = 0;
  NetworkStats network;  ///< round/message/payload accounting
  /// Schedule size: every run executes exactly this many phase-1 tuples
  /// (and the same number of phase-2 pop rounds).
  std::int64_t scheduledSteps = 0;
  /// Tuples whose group had unsatisfied instances (observed steps).
  std::int64_t activeSteps = 0;
  std::int64_t raises = 0;
  std::int32_t crashedProcessors = 0;
  /// True iff every surviving processor's local alpha/beta/lhs view is
  /// exactly equal to the ground-truth duals of the raises that happened.
  bool localViewsConsistent = false;
  /// Every phase-1 raise in execution order; filled only under
  /// DistributedOptions::recordRaiseLog.
  std::vector<DualRaiseRecord> raiseLog;
  /// Shard-claim traffic from the run's ParallelRunner: shards executed
  /// by their owning participant vs. stolen from another participant's
  /// block. Accounting only — never feeds back into the schedule.
  std::int64_t engineClaims = 0;
  std::int64_t engineSteals = 0;
};

/// Runs the protocol on a tree problem: builds the instance universe, the
/// ideal tree layering and the communication graph, then simulates both
/// phases over the round-synchronous bus. The problem is validated by the
/// universe builder.
DistributedResult runDistributedUnitTree(
    const TreeProblem& problem, const DistributedOptions& options = {});

/// Runs the protocol on a line problem with the §7 length layering.
DistributedResult runDistributedUnitLine(
    const LineProblem& problem, const DistributedOptions& options = {});

/// Runs both phases over an arbitrary transport (net/transport.hpp). The
/// transport must expose one endpoint per demand of the universe, over
/// the communication graph of the problem. Any transport honouring the
/// Transport delivery contract yields a run bit-identical to the
/// round-synchronous bus — this is the entry point the asynchronous
/// runner (net/runner.hpp) uses.
DistributedResult runDistributedOverTransport(
    const InstanceUniverse& universe, const Layering& layering,
    Transport& transport, const DistributedOptions& options = {});

/// Warm-started restricted run (src/online/): like
/// runDistributedOverTransport, but phase 1 walks only
/// `warm.activeInstances` with LHS warm-started from `warm.priorLhs`.
/// With an empty WarmStart this IS runDistributedOverTransport; with a
/// restriction and fixedSchedule-compatible options it is bit-identical
/// to runTwoPhaseRestricted on the same active set — the incremental
/// re-solver's equivalence obligation.
DistributedResult runDistributedWarmStart(const InstanceUniverse& universe,
                                          const Layering& layering,
                                          Transport& transport,
                                          const DistributedOptions& options,
                                          const WarmStart& warm);

class DynamicUniverse;
struct DynamicLayeringView;

/// The §5 protocol engine over one universe/layering pair and one
/// transport, reusable across runs. Construction sizes every pool-dense
/// array once (ground duals, LHS views, MIS state, fault flags) and
/// builds the contexts of the processors whose demands are present;
/// run() executes both phases and may be called again — each later run
/// resets only what the previous one wrote, so its cost follows the
/// region it touches, not the pool. A one-shot solve is one construction
/// and one run; the online solver (src/online/incremental.hpp) keeps
/// one engine for its whole life and reports arrivals and departures
/// through addProcessor/removeProcessor.
///
/// The options given at construction fix the stage plan and the thread
/// pool: every run must pass the same epsilon, rule, hmin and threads.
/// Everything else (seed, schedule length, MIS budget, faults, raise
/// log, observer, telemetry, ledger) is per run. The universe, layering
/// and transport must outlive the engine; the transport is attached
/// only for the duration of each run.
template <class U, class L>
class ProtocolEngine {
 public:
  ProtocolEngine(const U& universe, const L& layering, Transport& transport,
                 const DistributedOptions& options);
  ~ProtocolEngine();
  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  /// Builds demand d's processor context; call after d's instances
  /// joined the universe (DynamicUniverse::addDemand).
  void addProcessor(DemandId d);
  /// Drops demand d's processor context; call before its instances
  /// leave the universe (DynamicUniverse::retireDemand).
  void removeProcessor(DemandId d);

  /// One protocol run over `warm`'s restriction. `engineClaims` and
  /// `engineSteals` are the runner's traffic since the previous run (the
  /// first run includes the constructor's context build).
  DistributedResult run(const DistributedOptions& options,
                        const WarmStart& warm);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

extern template class ProtocolEngine<InstanceUniverse, Layering>;
extern template class ProtocolEngine<DynamicUniverse, DynamicLayeringView>;

/// Everything a runner needs before choosing a transport: the validated
/// universe (conflicts built), the layering and the communication graph.
/// Shared by the synchronous and asynchronous entry points so their
/// setups can never diverge.
struct PreparedRun {
  InstanceUniverse universe;
  Layering layering;
  std::vector<std::vector<std::int32_t>> adjacency;
};

PreparedRun prepareUnitTreeRun(const TreeProblem& problem);
PreparedRun prepareUnitLineRun(const LineProblem& problem);

}  // namespace treesched
