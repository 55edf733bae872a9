// Quickstart: schedule point-to-point demands on two tree networks.
//
// This is the 60-second tour of the public API:
//   1. describe the networks (trees over a shared vertex set);
//   2. describe the demands (vertex pairs + profits) and which networks
//      each one may use;
//   3. call solveUnit() — the paper's distributed (7+eps)-approximation
//      (Chakaravarthy, Roy, Sabharwal, PODC 2012) — and read out the
//      assignments plus the per-run optimality certificate.
#include <iostream>

#include "algo/solvers.hpp"

using namespace treesched;

int main() {
  // Seven sites; two alternative backbone trees connecting them.
  //
  //   network 0 (a path):   0-1-2-3-4-5-6
  //   network 1 (a star around site 3)
  TreeProblem problem;
  problem.numVertices = 7;
  problem.networks.push_back(makePathTree(/*id=*/0, 7));
  {
    std::vector<std::pair<VertexId, VertexId>> starEdges;
    for (VertexId v = 0; v < 7; ++v) {
      if (v != 3) starEdges.push_back({3, v});
    }
    problem.networks.emplace_back(/*id=*/1, 7, starEdges);
  }

  // Four demands; each wants an exclusive path between its two endpoints
  // on one of the networks its owner can reach.
  auto addDemand = [&](VertexId u, VertexId v, double profit,
                       std::vector<TreeId> access) {
    Demand d;
    d.id = static_cast<DemandId>(problem.demands.size());
    d.u = u;
    d.v = v;
    d.profit = profit;
    problem.demands.push_back(d);
    problem.access.push_back(std::move(access));
  };
  addDemand(0, 6, 5.0, {0, 1});  // long haul, may use either network
  addDemand(1, 2, 3.0, {0});     // short hop, path network only
  addDemand(4, 5, 2.0, {0});     // short hop, path network only
  addDemand(0, 6, 4.0, {1});     // competes with demand 0 on the star

  SolverOptions options;
  options.epsilon = 0.1;  // approximation slack: guarantee (7+eps)
  options.seed = 2026;

  const auto result = solveUnit(problem, options);

  std::cout << "scheduled " << result.assignments.size() << " of "
            << problem.numDemands() << " demands, profit " << result.profit
            << "\n";
  for (const TreeAssignment& a : result.assignments) {
    const Demand& d = problem.demands[static_cast<std::size_t>(a.demand)];
    std::cout << "  demand " << a.demand << " (" << d.u << " -> " << d.v
              << ", profit " << d.profit << ") on network " << a.network
              << "\n";
  }

  // Every run certifies its own quality: val(alpha,beta)/lambda bounds the
  // optimum from above by LP weak duality.
  std::cout << "optimum is at most " << result.dualUpperBound
            << " (certified ratio "
            << result.dualUpperBound / result.profit << ", worst-case bound "
            << result.certifiedBound << ")\n";
  return 0;
}
