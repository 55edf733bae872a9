// Virtual-time churn engine: epoch-batched admission over a churn trace.
//
// The engine cuts a ChurnTrace (online/arrivals.hpp) into fixed-length
// virtual-time epochs, nets each window's events (a demand arriving and
// departing inside one window is never admitted), and feeds the batches
// to the IncrementalSolver — one warm-started incremental re-solve per
// epoch over the live transport. It is the online counterpart of the
// one-shot runDistributedUnit{Tree,Line} entry points.
//
// The engine runs over a DynamicUniverse (core/dynamic_universe.hpp):
// only the per-network layering structures and pool indexes are built up
// front; instances materialize as demands arrive and garbage-collect as
// they depart, so per-epoch cost tracks churn and steady-state memory
// tracks live demands — never the pool size.
//
// The transport is selected by ChurnEngineConfig::transport
// (net/live_transport.hpp): the synchronous bus, the async lossy wire or
// the sharded wire. Epoch outcomes are bit-identical across all of them
// (the Transport contract); the choice moves only the wire accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "net/live_transport.hpp"
#include "online/arrivals.hpp"
#include "online/incremental.hpp"

namespace treesched {

struct ChurnEngineConfig {
  /// Virtual time per epoch batch (> 0).
  double epochLength = 8.0;
  OnlineSolverConfig solver;
  /// Which wire the epochs run over (sync bus by default).
  LiveTransportConfig transport;
};

struct ChurnRunResult {
  std::vector<EpochOutcome> epochs;
  /// Admitted solution and revenue after the last epoch.
  Solution finalSolution;
  double finalProfit = 0;
  /// Instances of the demands still active after the last epoch
  /// (ascending) — the restriction a from-scratch comparator runs on.
  std::vector<InstanceId> finalActiveInstances;
  /// Mean resolve fraction over epochs with churn (1.0 = every such
  /// epoch was a full from-scratch re-solve; locality-heavy traces must
  /// land below 1.0 — the bench-tracked number).
  double meanResolveFraction = 0;
  std::int32_t fullResolves = 0;
  std::int64_t totalRounds = 0;
  std::int64_t totalMessages = 0;
  /// Admission-latency SLA aggregates after the last epoch.
  AdmissionSla sla;
  // ---- Dynamic-universe maintenance cost ----
  /// One-time pool build (layerer structures + indexes) — the only cost
  /// that scales with pool size.
  double universeBuildMs = 0;
  /// Mean addDemand wall time over the run's arrivals (µs) — the
  /// bench-tracked per-arrival extension cost, independent of pool size.
  double meanExtendUsPerArrival = 0;
  // ---- Hot-shard rebalancing + engine scaling aggregates ----
  // All zero when rebalancing is disabled or the transport has no live
  // sharded placement; performance accounting only.
  std::int64_t totalDemandsMigrated = 0;
  std::int64_t totalEngineClaims = 0;
  std::int64_t totalEngineSteals = 0;
  /// Peak per-processor load variance observed entering a rebalance step
  /// and the peak remaining after one — the bench-tracked pair (a working
  /// rebalancer shows peakVarianceAfter well below peakVarianceBefore
  /// under targeted_burst).
  double peakVarianceBefore = 0;
  double peakVarianceAfter = 0;
  /// The transport's cumulative accounting after the last epoch (wire
  /// transmissions, virtual time, ... — the per-transport bench axis).
  NetworkStats network;
};

/// Runs the trace over a prepared dynamic universe (no live demands
/// yet), building the transport from config.transport. The universe must
/// outlive the call and comes back holding the final live set.
ChurnRunResult runChurnOverTrace(DynamicUniverse& universe,
                                 const ChurnTrace& trace,
                                 const ChurnEngineConfig& config);

/// Splits the trace into epoch batches of `epochLength` without running
/// anything (exposed for tests and the demo): batch k holds the netted
/// arrivals/departures of window [k*len, (k+1)*len).
struct EpochBatch {
  std::vector<DemandId> arrivals;
  std::vector<DemandId> departures;
};
std::vector<EpochBatch> batchTrace(const ChurnTrace& trace,
                                   double epochLength);

}  // namespace treesched
