#include "net/runner.hpp"

namespace treesched {

namespace {

ShardPlacement makePlacement(
    const std::vector<std::vector<std::int32_t>>& access,
    const AsyncConfig& net) {
  const auto numDemands = static_cast<std::int32_t>(access.size());
  if (net.shardProcessors <= 0 || net.shardProcessors >= numDemands) {
    return ShardPlacement::identity(numDemands);
  }
  return ShardPlacement::build(net.strategy, access, net.shardProcessors);
}

DistributedResult runOverSynchronizer(
    PreparedRun run, const std::vector<std::vector<std::int32_t>>& access,
    const DistributedOptions& options, const AsyncConfig& net) {
  AlphaSynchronizer transport(std::move(run.graph), makePlacement(access, net),
                              net);
  return runDistributedOverTransport(run.universe, run.layering, transport,
                                     options);
}

}  // namespace

DistributedResult runAsyncUnitTree(const TreeProblem& problem,
                                   const DistributedOptions& options,
                                   const AsyncConfig& net) {
  return runOverSynchronizer(prepareUnitTreeRun(problem), problem.access,
                             options, net);
}

DistributedResult runAsyncUnitLine(const LineProblem& problem,
                                   const DistributedOptions& options,
                                   const AsyncConfig& net) {
  return runOverSynchronizer(prepareUnitLineRun(problem), problem.access,
                             options, net);
}

}  // namespace treesched
