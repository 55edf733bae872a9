#include "inputs.hpp"

#include <chrono>

#include "gen/scenario.hpp"

namespace perfbench {

using namespace treesched;

namespace {

double msSince(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

}  // namespace

std::int32_t ChurnInputs::numDemands() const {
  return line ? line->numDemands() : tree->numDemands();
}

const std::vector<std::vector<std::int32_t>>& ChurnInputs::access() const {
  return line ? line->access : tree->access;
}

ChurnInputs makeSparseChurnInputs(std::uint64_t seed,
                                  const SparseChurnSize& size) {
  ChurnInputs in;
  auto begin = std::chrono::steady_clock::now();
  ChurnLineScenario scenario =
      makeDiurnalMetroLine100k(seed, size.poolDemands);
  in.scenarioMs = msSince(begin);

  // The preset's lifetime-to-horizon ratio is kept while the horizon
  // grows to hundreds of epochs, so the live set stays a steady
  // fraction of the churned ids.
  const double presetHorizon = scenario.arrivals.horizon;
  in.arrivals = scenario.arrivals;
  in.epochLength = scenario.epochLength;
  in.arrivals.horizon = in.epochLength * size.horizonEpochs;
  in.arrivals.meanLifetime =
      scenario.arrivals.meanLifetime * in.arrivals.horizon / presetHorizon;
  in.line = std::make_shared<const LineProblem>(std::move(scenario.pool));

  begin = std::chrono::steady_clock::now();
  in.trace = generateChurnTrace(in.arrivals, size.churnIds);
  in.batches = batchTrace(in.trace, in.epochLength);
  in.traceMs = msSince(begin);
  return in;
}

ChurnInputs makeHotspotInputs(std::uint64_t seed, const HotspotSize& size) {
  ChurnInputs in;
  auto begin = std::chrono::steady_clock::now();
  ChurnTreeScenario scenario = makeHotspotTree50k(seed, size.poolDemands);
  in.scenarioMs = msSince(begin);
  in.arrivals = scenario.arrivals;
  in.epochLength = scenario.epochLength;
  in.tree = std::make_shared<const TreeProblem>(std::move(scenario.pool));

  begin = std::chrono::steady_clock::now();
  in.trace = generateChurnTrace(in.arrivals, in.tree->access);
  in.batches = batchTrace(in.trace, in.epochLength);
  in.traceMs = msSince(begin);
  return in;
}

TreeProblem makeOneshotProblem(std::uint64_t seed, const OneshotSize& size) {
  return makeCdnTree250k(seed, size.demands);
}

}  // namespace perfbench
