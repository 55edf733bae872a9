// The benchmark's three workloads. Each one runs for a wall-time budget,
// checks every operation's output, and fills a RunResult with the
// end-to-end metrics (trace off) or the per-layer metrics (trace on).
//
// A traced run alternates untraced and traced passes over the same
// inputs: call timings and the tracing overhead come from the untraced
// passes, span and registry figures from the traced ones.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dynamic_universe.hpp"
#include "inputs.hpp"
#include "metrics.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

RunResult runSparsePoolChurn(const RunOptions& options,
                             const SparseChurnSize& size = {});
RunResult runHotspotSharded(const RunOptions& options,
                            const HotspotSize& size = {});
RunResult runOneshotCdnTree(const RunOptions& options,
                            const OneshotSize& size = {});

/// Replays epoch batches into a separate DynamicUniverse in the order
/// the incremental solver mutates its own (departures retire, then
/// arrivals add, each in batch order), timing every call. This is how
/// the benchmark measures universe maintenance from outside the solver.
class ShadowUniverseReplay {
 public:
  explicit ShadowUniverseReplay(treesched::DynamicUniverse universe)
      : universe_(std::move(universe)) {}

  void apply(const treesched::EpochBatch& batch);

  const treesched::DynamicUniverse& universe() const { return universe_; }
  double addMicros() const { return addMicros_; }
  double retireMicros() const { return retireMicros_; }
  std::int64_t adds() const { return adds_; }
  std::int64_t retires() const { return retires_; }

 private:
  treesched::DynamicUniverse universe_;
  double addMicros_ = 0;
  double retireMicros_ = 0;
  std::int64_t adds_ = 0;
  std::int64_t retires_ = 0;
};

/// Builds the dynamic universe a churn workload's solver runs over.
treesched::DynamicUniverse makeChurnUniverse(const ChurnInputs& inputs);

}  // namespace perfbench
