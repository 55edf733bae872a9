// Shared fixtures: the paper's 14-vertex example tree (Figure 6) and small
// helpers used across test files.
//
// Figure 6 facts encoded from the text (paper uses 1-based labels; we use
// 0-based = label-1):
//  * path(4,13) = 4,2,5,8,13 ("node 4 has only one wing <4,2>, while node
//    8 has two wings <5,8> and <8,13>"; "passes through nodes 2 and 8 ...
//    also passes through LCA(2,8) = 5" in the balancing H of Fig. 3);
//  * in the root-fixing decomposition rooted at node 1, demand <4,13> is
//    captured at node 2 and pi(d) = {<2,4>, <2,5>} (Appendix A);
//  * bending points of <4,13> w.r.t. nodes 3 and 9 are 2 and 5 (§4.4);
//  * C(2) = {2,4} with pivot set {1,5}; hence 2 is adjacent to 1, 4, 5.
// The vertices 6,7,10,11,14 are attached consistently with those facts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/tree_network.hpp"
#include "net/communication_graph.hpp"

namespace treesched::testing {

/// Converts a 1-based paper label to our 0-based VertexId.
constexpr VertexId P(int paperLabel) { return paperLabel - 1; }

/// The example tree-network of Figure 6 (14 vertices).
inline TreeNetwork paperExampleTree(TreeId id = 0) {
  const std::vector<std::pair<VertexId, VertexId>> edges = {
      {P(1), P(2)},  {P(2), P(4)},  {P(2), P(5)},  {P(5), P(8)},
      {P(5), P(9)},  {P(8), P(12)}, {P(8), P(13)}, {P(1), P(3)},
      {P(3), P(6)},  {P(6), P(7)},  {P(9), P(10)}, {P(10), P(11)},
      {P(13), P(14)}};
  return TreeNetwork(id, 14, edges);
}

/// Demand d's neighbours in `graph`, ascending.
inline std::vector<std::int32_t> sortedNeighbors(
    const CommunicationGraph& graph, std::int32_t d) {
  std::vector<std::int32_t> out;
  graph.forEachNeighbor(d, [&out](std::int32_t m) { out.push_back(m); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace treesched::testing
