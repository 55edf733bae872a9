// Saving, sharing and replaying workloads (the core/io module).
//
// Generates a scenario, writes it to the versioned text format, reloads
// it, and demonstrates that a solver run on the reloaded instance is
// bit-identical — the workflow for filing reproducible bug reports or
// publishing benchmark inputs alongside results.
#include <iostream>

#include "treesched.hpp"

using namespace treesched;

int main() {
  TreeScenarioConfig cfg;
  cfg.seed = 20260611;
  cfg.numVertices = 30;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 25;
  cfg.demands.heights = HeightMode::Mixed;
  cfg.demands.hmin = 0.25;
  const TreeProblem original = makeTreeScenario(cfg);

  const std::string path = "/tmp/treesched_workload.txt";
  saveTreeProblem(path, original);
  std::cout << "saved workload to " << path << " ("
            << serializeTreeProblem(original).size() << " bytes)\n";

  const TreeProblem reloaded = loadTreeProblem(path);

  SolverOptions options;
  options.seed = 9;
  const auto a = solveArbitrary(original, options);
  const auto b = solveArbitrary(reloaded, options);

  std::cout << "profit on original: " << a.profit
            << ", on reloaded: " << b.profit << "\n";
  bool identical = a.assignments.size() == b.assignments.size();
  for (std::size_t i = 0; identical && i < a.assignments.size(); ++i) {
    identical = a.assignments[i].demand == b.assignments[i].demand &&
                a.assignments[i].network == b.assignments[i].network;
  }
  std::cout << "schedules identical: " << (identical ? "yes" : "NO") << "\n";

  // The first lines of the format are human-readable:
  const std::string text = serializeTreeProblem(original);
  std::cout << "\nformat preview:\n"
            << text.substr(0, text.find('\n', text.find("network")) + 1)
            << "...\n";
  return identical ? 0 : 1;
}
