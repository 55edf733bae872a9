// The §5 communication graph, kept as network incidence.
//
// Two processors (demands) exchange messages when they share an
// accessible network, so the graph is a union of per-network cliques.
// CommunicationGraph never expands those cliques into per-demand
// adjacency lists. It keeps the incidence instead: each demand's
// networks (fixed at construction, range-checked once) and each
// network's sorted *connected* members, plus each demand's degree so a
// fan-out is sized in O(1). Demands connect and disconnect between
// rounds; a demand's neighbours are the other connected members of its
// networks. A pair sharing several networks is one edge, reached
// through the smallest network the two share (firstShared), so every
// fan-out built on forEachNeighbor visits each neighbour exactly once.
//
// The graph has no transport dependency: the transports (SimNetwork,
// AlphaSynchronizer) and the online solver (src/online/) read the same
// object.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace treesched {

class CommunicationGraph {
 public:
  /// A graph over `access.size()` demands with every demand disconnected.
  /// `access[d]` lists the networks demand d may use; every id must lie in
  /// [0, numNetworks) (CheckError otherwise). Lists are stored sorted and
  /// duplicate-free.
  CommunicationGraph(const std::vector<std::vector<std::int32_t>>& access,
                     std::int32_t numNetworks);

  std::int32_t numDemands() const {
    return static_cast<std::int32_t>(networkStart_.size()) - 1;
  }
  std::int32_t numNetworks() const {
    return static_cast<std::int32_t>(members_.size());
  }

  /// Demand d's networks, ascending.
  std::span<const std::int32_t> networksOf(std::int32_t d) const {
    const auto begin = networkStart_[static_cast<std::size_t>(d)];
    const auto end = networkStart_[static_cast<std::size_t>(d) + 1];
    return {networks_.data() + begin, static_cast<std::size_t>(end - begin)};
  }

  /// Network t's connected demands, ascending.
  std::span<const std::int32_t> members(std::int32_t t) const {
    return members_[static_cast<std::size_t>(t)];
  }

  bool connected(std::int32_t d) const {
    return connected_[static_cast<std::size_t>(d)] != 0;
  }

  /// Joins d to the member list of each of its networks. Throws
  /// CheckError when d is out of range or already connected.
  /// O(d's networks' members).
  void connect(std::int32_t d);

  /// Leaves every member list; a no-op when d is not connected.
  /// O(d's networks' members).
  void disconnect(std::int32_t d);

  /// True when `t`, a network of both `a` and `b`, is the smallest network
  /// the two share — the one network whose fan-out carries the pair.
  bool firstShared(std::int32_t a, std::int32_t b, std::int32_t t) const {
    const auto ofA = networksOf(a);
    if (ofA.front() == t) return true;
    for (const std::int32_t s : networksOf(b)) {
      if (s >= t) return true;
      if (std::binary_search(ofA.begin(), ofA.end(), s)) return false;
    }
    return true;
  }

  /// Calls `visit(m)` once per neighbour m of `d`: per network of d in
  /// ascending order, then per member. Nothing when d is disconnected.
  template <typename Visit>
  void forEachNeighbor(std::int32_t d, Visit&& visit) const {
    if (!connected(d)) return;
    const auto nets = networksOf(d);
    for (std::size_t k = 0; k < nets.size(); ++k) {
      // Every member of d's smallest network is first shared there.
      for (const std::int32_t m : members(nets[k])) {
        if (m != d && (k == 0 || firstShared(d, m, nets[k]))) visit(m);
      }
    }
  }

  /// Number of neighbours of `d`, kept current by connect/disconnect so a
  /// broadcast can size its fan-out in O(1).
  std::int32_t degree(std::int32_t d) const {
    return degree_[static_cast<std::size_t>(d)];
  }

 private:
  std::vector<std::int32_t> networkStart_;  ///< CSR offsets, one per demand + 1
  std::vector<std::int32_t> networks_;
  std::vector<std::vector<std::int32_t>> members_;
  std::vector<std::uint8_t> connected_;
  std::vector<std::int32_t> degree_;
};

/// The one-shot protocol's graph: `CommunicationGraph(access, numNetworks)`
/// with every demand connected.
CommunicationGraph communicationGraph(
    const std::vector<std::vector<std::int32_t>>& access,
    std::int32_t numNetworks);

}  // namespace treesched
