// Dual variables of the packing LP (paper §3.1 / §6.1).
//
// alpha(a) per demand, beta(e) per global edge. The primal-dual framework
// only ever *raises* these (monotonically from 0); the objective
// val(alpha, beta) = sum alpha + sum beta upper-bounds lambda * OPT by weak
// duality once every instance is lambda-satisfied.
//
// The arrays are pool-sized, but a run writes only the demands and edges
// its raises touch. Both are recorded, so reset() and objective() cost
// O(touched), not O(pool) — what lets one DualState serve every epoch of
// the online solver (src/online/).
#pragma once

#include <span>
#include <vector>

#include "core/universe.hpp"
#include "util/touched_ids.hpp"

namespace treesched {

class DualState {
 public:
  /// Accepts any universe shape (InstanceUniverse or DynamicUniverse):
  /// only the demand and global-edge counts matter, and both are
  /// pool-level constants under churn.
  template <class U>
  explicit DualState(const U& universe)
      : alpha_(static_cast<std::size_t>(universe.numDemands()), 0.0),
        beta_(static_cast<std::size_t>(universe.numGlobalEdges()), 0.0),
        touchedDemands_(alpha_.size()),
        touchedEdges_(beta_.size()) {}

  double alpha(DemandId d) const { return alpha_[static_cast<std::size_t>(d)]; }
  double beta(GlobalEdgeId e) const {
    return beta_[static_cast<std::size_t>(e)];
  }

  void raiseAlpha(DemandId d, double by) {
    touchedDemands_.mark(d);
    alpha_[static_cast<std::size_t>(d)] += by;
  }
  void raiseBeta(GlobalEdgeId e, double by) {
    touchedEdges_.mark(e);
    beta_[static_cast<std::size_t>(e)] += by;
  }

  /// val(alpha, beta): every alpha in id order, then every beta. Entries
  /// never raised are exactly +0.0 and adding +0.0 leaves the running
  /// sum unchanged, so summing only the touched ids in ascending order
  /// gives the dense sum bit for bit.
  double objective();

  /// Zeroes every touched entry (all others are zero already), in
  /// O(touched).
  void reset();

  /// Demands / edges raised (by any amount, either sign) since the last
  /// reset, each once, in no particular order.
  std::span<const DemandId> touchedDemands() const {
    return touchedDemands_.ids();
  }
  std::span<const GlobalEdgeId> touchedEdges() const {
    return touchedEdges_.ids();
  }

  std::size_t numDemands() const { return alpha_.size(); }
  std::size_t numEdges() const { return beta_.size(); }

 private:
  std::vector<double> alpha_;
  std::vector<double> beta_;
  TouchedIds touchedDemands_;
  TouchedIds touchedEdges_;
};

}  // namespace treesched
