// Incrementally maintained dual-constraint LHS per instance.
//
// A raise touches only the instances that share the raised demand or a
// raised critical edge; the universe indexes both, so updating costs
// O(|Inst(a)| + sum over raised edges of |instancesOnEdge|) instead of a
// full rescan. Used by the two-phase engine and the sequential algorithm.
// Templated on the universe type: over a `DynamicUniverse` the edge and
// demand indexes enumerate live instances only, which is exactly the
// restriction of the pool-wide update to the live id set.
#pragma once

#include <span>
#include <vector>

#include "core/universe.hpp"
#include "framework/raise_policy.hpp"

namespace treesched {

// The single definition of the dual-constraint LHS update rule, shared
// by the LhsTracker below and the online incremental solver (which
// applies raises with sign -1 when purging departed demands). Keeping
// one copy is what makes the online "purge exactly" invariant safe
// against future raise-rule changes.

/// Adds `by` to the LHS of every instance of demand `d` (alpha part).
template <class U>
void applyAlphaToLhs(const U& universe, DemandId d, double by,
                     std::vector<double>& lhs) {
  for (const InstanceId i : universe.instancesOfDemand(d)) {
    lhs[static_cast<std::size_t>(i)] += by;
  }
}

/// Adds `by` (times the Narrow-rule height factor) to the LHS of every
/// instance on global edge `e` (beta part).
template <class U>
void applyBetaToLhs(const U& universe, RaiseRule rule, GlobalEdgeId e,
                    double by, std::vector<double>& lhs) {
  for (const InstanceId i : universe.instancesOnEdge(e)) {
    const double factor =
        rule == RaiseRule::Narrow ? universe.instance(i).height : 1.0;
    lhs[static_cast<std::size_t>(i)] += factor * by;
  }
}

template <class U>
class BasicLhsTracker {
 public:
  BasicLhsTracker(const U& universe, RaiseRule rule)
      : universe_(universe),
        rule_(rule),
        lhs_(static_cast<std::size_t>(universe.numInstances()), 0.0) {}

  double lhs(InstanceId i) const { return lhs_[static_cast<std::size_t>(i)]; }

  /// Overwrites one instance's value: the protocol engine warm-starts
  /// its restricted instances from the online solver's surviving duals
  /// and zeroes what an earlier run wrote, one instance at a time.
  void set(InstanceId i, double value) {
    lhs_[static_cast<std::size_t>(i)] = value;
  }

  void onAlphaRaise(DemandId d, double by) {
    applyAlphaToLhs(universe_, d, by, lhs_);
  }

  void onBetaRaise(GlobalEdgeId e, double by) {
    applyBetaToLhs(universe_, rule_, e, by, lhs_);
  }

  /// Applies a computed raise of instance `i` (alpha + its critical edges).
  void onRaise(InstanceId i, std::span<const GlobalEdgeId> critical,
               const RaiseAmounts& amounts) {
    onAlphaRaise(universe_.instance(i).demand, amounts.alphaIncrement);
    for (const GlobalEdgeId e : critical) {
      onBetaRaise(e, amounts.betaIncrement);
    }
  }

 private:
  const U& universe_;
  RaiseRule rule_;
  std::vector<double> lhs_;
};

using LhsTracker = BasicLhsTracker<InstanceUniverse>;

}  // namespace treesched
