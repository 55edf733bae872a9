#include "framework/dual_state.hpp"

namespace treesched {

namespace {

/// Adds values[id] over the touched ids in ascending id order. When most
/// ids were touched the dense scan is cheaper than sorting them; it adds
/// the same terms in the same order plus +0.0s, so either path gives the
/// same bits.
void addTouched(const std::vector<double>& values, TouchedIds& touched,
                double& total) {
  if (touched.ids().size() * 8 >= values.size()) {
    for (const double v : values) total += v;
    return;
  }
  touched.sortIds();
  for (const std::int32_t id : touched.ids()) {
    total += values[static_cast<std::size_t>(id)];
  }
}

}  // namespace

double DualState::objective() {
  double total = 0;
  addTouched(alpha_, touchedDemands_, total);
  addTouched(beta_, touchedEdges_, total);
  return total;
}

void DualState::reset() {
  for (const DemandId d : touchedDemands_.ids()) {
    alpha_[static_cast<std::size_t>(d)] = 0.0;
  }
  for (const GlobalEdgeId e : touchedEdges_.ids()) {
    beta_[static_cast<std::size_t>(e)] = 0.0;
  }
  touchedDemands_.clear();
  touchedEdges_.clear();
}

}  // namespace treesched
