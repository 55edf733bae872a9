// Seeded input generation for the benchmark workloads.
//
// Every input is a pure function of (seed, size): the same seed gives
// the same pool, trace and epoch batches, so a later commit is measured
// on exactly the inputs its parent saw. The library receives only these
// generated inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/line_problem.hpp"
#include "core/tree_problem.hpp"
#include "online/arrivals.hpp"
#include "online/churn_engine.hpp"

namespace perfbench {

/// sparse_pool_churn: a diurnal_metro_100k line pool of `poolDemands`
/// whose churn touches only demand ids below `churnIds`.
struct SparseChurnSize {
  std::int32_t poolDemands = 50'000;
  std::int32_t churnIds = 2'000;
  /// Virtual-time epochs the arrival horizon spans.
  std::int32_t horizonEpochs = 200;
};

/// hotspot_sharded: a hotspot_tree_50k pool of `poolDemands` under its
/// own targeted_burst churn (every pool demand arrives once).
struct HotspotSize {
  std::int32_t poolDemands = 1'000;
};

/// oneshot_cdn_tree: a cdn_tree_250k problem of `demands`.
struct OneshotSize {
  std::int32_t demands = 50'000;
};

/// A churn workload's inputs. Exactly one of line/tree is set.
struct ChurnInputs {
  std::shared_ptr<const treesched::LineProblem> line;
  std::shared_ptr<const treesched::TreeProblem> tree;
  treesched::ArrivalConfig arrivals;
  double epochLength = 8.0;
  treesched::ChurnTrace trace;
  std::vector<treesched::EpochBatch> batches;
  /// Wall time of the preset call and of trace generation + batching.
  double scenarioMs = 0;
  double traceMs = 0;

  std::int32_t numDemands() const;
  const std::vector<std::vector<std::int32_t>>& access() const;
};

ChurnInputs makeSparseChurnInputs(std::uint64_t seed,
                                  const SparseChurnSize& size = {});
ChurnInputs makeHotspotInputs(std::uint64_t seed,
                              const HotspotSize& size = {});
treesched::TreeProblem makeOneshotProblem(std::uint64_t seed,
                                          const OneshotSize& size = {});

}  // namespace perfbench
