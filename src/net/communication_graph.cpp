#include "net/communication_graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace treesched {

CommunicationGraph::CommunicationGraph(
    const std::vector<std::vector<std::int32_t>>& access,
    std::int32_t numNetworks)
    : members_(static_cast<std::size_t>(std::max(0, numNetworks))),
      connected_(access.size(), 0),
      degree_(access.size(), 0) {
  checkThat(numNetworks >= 0, "network count non-negative", __FILE__,
            __LINE__);
  std::size_t entries = 0;
  for (const auto& list : access) entries += list.size();
  networks_.reserve(entries);
  networkStart_.reserve(access.size() + 1);
  networkStart_.push_back(0);
  for (const auto& list : access) {
    const auto begin = static_cast<std::ptrdiff_t>(networks_.size());
    bool ascending = true;  // validated problems list sorted, unique ids
    for (std::size_t k = 0; k < list.size(); ++k) {
      checkThat(list[k] >= 0 && list[k] < numNetworks,
                "communication graph access entry in range", __FILE__,
                __LINE__);
      ascending = ascending && (k == 0 || list[k - 1] < list[k]);
    }
    networks_.insert(networks_.end(), list.begin(), list.end());
    if (!ascending) {
      const auto first = networks_.begin() + begin;
      std::sort(first, networks_.end());
      networks_.erase(std::unique(first, networks_.end()), networks_.end());
    }
    networkStart_.push_back(static_cast<std::int32_t>(networks_.size()));
  }
}

void CommunicationGraph::connect(std::int32_t d) {
  checkIndex(d, numDemands(), "CommunicationGraph::connect");
  checkThat(!connected(d), "a demand connects once", __FILE__, __LINE__);
  for (const std::int32_t t : networksOf(d)) {
    auto& list = members_[static_cast<std::size_t>(t)];
    list.insert(std::lower_bound(list.begin(), list.end(), d), d);
  }
  connected_[static_cast<std::size_t>(d)] = 1;
  auto& degree = degree_[static_cast<std::size_t>(d)];
  forEachNeighbor(d, [&](std::int32_t m) {
    ++degree_[static_cast<std::size_t>(m)];
    ++degree;
  });
}

void CommunicationGraph::disconnect(std::int32_t d) {
  checkIndex(d, numDemands(), "CommunicationGraph::disconnect");
  if (!connected(d)) return;
  forEachNeighbor(d, [&](std::int32_t m) {
    --degree_[static_cast<std::size_t>(m)];
  });
  degree_[static_cast<std::size_t>(d)] = 0;
  for (const std::int32_t t : networksOf(d)) {
    auto& list = members_[static_cast<std::size_t>(t)];
    list.erase(std::lower_bound(list.begin(), list.end(), d));
  }
  connected_[static_cast<std::size_t>(d)] = 0;
}

CommunicationGraph communicationGraph(
    const std::vector<std::vector<std::int32_t>>& access,
    std::int32_t numNetworks) {
  CommunicationGraph graph(access, numNetworks);
  for (std::int32_t d = 0; d < graph.numDemands(); ++d) {
    graph.connect(d);
  }
  return graph;
}

}  // namespace treesched
