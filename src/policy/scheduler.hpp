// The pluggable Scheduler interface.
//
// A Scheduler solves a *restricted active set* — any subset of a
// universe's instances — and reports revenue, feasibility and message
// cost. The restriction is what lets one interface span the whole
// algorithm family: a one-shot solve passes every instance; the online
// epoch loop (policy/online_policy.hpp) passes the instances of the
// demands alive this epoch.
//
// Implementations range from the paper's two-phase LP-dual protocol
// (which runs distributed, over a Transport, and pays wire cost) to
// centralized baselines (greedy, local search, EMR-style line packing)
// that solve with global knowledge and report zero messages — the
// honest comparison the tournament bench makes explicit: the paper
// algorithm competes on revenue while paying for distribution.
//
// Contract every implementation must honour:
//  * the returned solution is feasible on the universe and uses only
//    instances from `context.active`;
//  * the run is deterministic in (universe, active, options) — all
//    randomness is keyed hashing, so repeated solves are bit-identical
//    at any thread count;
//  * `messages`/`rounds` cover exactly the traffic this solve caused.
//
// Schedulers are addressable by id string through SchedulerRegistry
// (policy/registry.hpp); `SchedulerRegistry::all().make(id, options)` is
// the single public entry surface for "run a scheduler".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/solution.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "net/transport.hpp"

namespace treesched {

/// Everything a scheduler may read during one solve. The referenced
/// structures must outlive the call.
struct ScheduleContext {
  const InstanceUniverse& universe;  ///< conflicts must be built
  const Layering& layering;
  /// Accessibility lists of the underlying problem (access[d] = network
  /// ids demand d may use) — the communication-graph signal for
  /// schedulers that run over a wire.
  const std::vector<std::vector<std::int32_t>>& access;
  /// Instances the scheduler may select, sorted ascending. An empty span
  /// means the whole universe.
  std::span<const InstanceId> active;
  /// Optional wire to run over. Distributed schedulers use it when
  /// given and build a private round-synchronous bus when null;
  /// centralized baselines ignore it.
  Transport* transport = nullptr;
};

/// What one solve reports: the admitted solution plus the leaderboard
/// columns (revenue, certificate, message cost).
struct ScheduleOutcome {
  Solution solution;  ///< instance ids, sorted ascending
  double profit = 0;
  /// Dual (LP) upper bound on OPT over the active set; 0 when the
  /// scheduler carries no certificate (the baselines).
  double dualUpperBound = 0;
  double lambdaMeasured = 0;  ///< 0 when not a primal-dual run
  /// Wire cost of this solve; zero for centralized schedulers.
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t raises = 0;  ///< phase-1 raises; 0 for non-dual schedulers
};

/// Static metadata of one registered scheduler.
struct SchedulerInfo {
  std::string id;       ///< registry key, e.g. "two_phase/narrow"
  std::string summary;  ///< one line for tables and --list-policies
  /// True when the scheduler reports a per-run optimality certificate
  /// (dualUpperBound > 0).
  bool certified = false;
  /// True when the solve exchanges messages over a transport.
  bool distributed = false;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual const SchedulerInfo& info() const = 0;

  /// Solves the restricted active set. Must be callable repeatedly and
  /// from multiple Scheduler instances concurrently (no hidden shared
  /// state).
  virtual ScheduleOutcome solve(const ScheduleContext& context) = 0;
};

/// Resolves `context.active`: the given span, or (when empty) the full
/// ascending instance list of the universe written into `storage`.
std::span<const InstanceId> resolveActiveSet(
    const ScheduleContext& context, std::vector<InstanceId>& storage);

}  // namespace treesched
