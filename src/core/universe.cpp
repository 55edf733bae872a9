#include "core/universe.hpp"

#include <algorithm>
#include <type_traits>

#include "util/check.hpp"

namespace treesched {

PoolConstants::PoolConstants(const TreeProblem& problem) {
  problem.validate();
  kind_ = Kind::Tree;
  numNetworks_ = problem.numNetworks();
  for (const TreeNetwork& net : problem.networks) {
    edgeOffset_.push_back(edgeOffset_.back() + net.numEdges());
  }
  scanDemands(problem);
}

PoolConstants::PoolConstants(const LineProblem& problem) {
  problem.validate();
  kind_ = Kind::Line;
  numNetworks_ = problem.numResources;
  lineSlots_ = problem.numSlots;
  for (ResourceId r = 0; r < numNetworks_; ++r) {
    edgeOffset_.push_back(edgeOffset_.back() + problem.numSlots);
  }
  scanDemands(problem);
}

// A validated problem gives every demand at least one instance, and all
// of a demand's instances share its profit (and, on lines, its length),
// so the demands determine the pool's ranges.
template <class Problem>
void PoolConstants::scanDemands(const Problem& problem) {
  numDemands_ = problem.numDemands();
  if (problem.demands.empty()) return;
  profitMax_ = profitMin_ = problem.demands.front().profit;
  for (const auto& dem : problem.demands) {
    profitMax_ = std::max(profitMax_, dem.profit);
    profitMin_ = std::min(profitMin_, dem.profit);
  }
  if constexpr (std::is_same_v<Problem, LineProblem>) {
    minLength_ = maxLength_ = problem.demands.front().processing;
    for (const WindowDemand& dem : problem.demands) {
      minLength_ = std::min(minLength_, dem.processing);
      maxLength_ = std::max(maxLength_, dem.processing);
    }
  }
}

GlobalEdgeId PoolConstants::globalEdge(TreeId network, EdgeId e) const {
  checkIndex(network, numNetworks_, "network id");
  const GlobalEdgeId g = edgeOffset_[static_cast<std::size_t>(network)] + e;
  checkThat(g < edgeOffset_[static_cast<std::size_t>(network) + 1],
            "edge id within network", __FILE__, __LINE__);
  return g;
}

std::int32_t PoolConstants::lineSlots() const {
  checkThat(kind_ == Kind::Line, "line universe", __FILE__, __LINE__);
  return lineSlots_;
}

std::int32_t instanceCount(const TreeProblem& problem, DemandId d) {
  return static_cast<std::int32_t>(
      problem.access[static_cast<std::size_t>(d)].size());
}

std::int32_t instanceCount(const LineProblem& problem, DemandId d) {
  const WindowDemand& dem = problem.demands[static_cast<std::size_t>(d)];
  const std::int32_t starts = dem.deadline - dem.processing - dem.release + 2;
  return static_cast<std::int32_t>(
             problem.access[static_cast<std::size_t>(d)].size()) *
         starts;
}

void expandDemand(const TreeProblem& problem, const PoolConstants& pool,
                  DemandId d, InstanceId firstId,
                  std::vector<InstanceRecord>& records,
                  std::vector<GlobalEdgeId>& paths) {
  const Demand& dem = problem.demands[static_cast<std::size_t>(d)];
  InstanceId id = firstId;
  for (const TreeId t : problem.access[static_cast<std::size_t>(d)]) {
    const TreeNetwork& net = problem.networks[static_cast<std::size_t>(t)];
    const GlobalEdgeId base = pool.globalEdge(t, 0);
    InstanceRecord rec;
    rec.id = id++;
    rec.demand = d;
    rec.network = t;
    rec.u = dem.u;
    rec.v = dem.v;
    rec.profit = dem.profit;
    rec.height = dem.height;
    rec.pathBegin = static_cast<std::int32_t>(paths.size());
    for (const EdgeId e : net.pathEdges(dem.u, dem.v)) {
      paths.push_back(base + e);
    }
    rec.pathEnd = static_cast<std::int32_t>(paths.size());
    checkThat(rec.pathLength() >= 1, "instance path non-empty", __FILE__,
              __LINE__);
    records.push_back(rec);
  }
}

void expandDemand(const LineProblem& problem, const PoolConstants& pool,
                  DemandId d, InstanceId firstId,
                  std::vector<InstanceRecord>& records,
                  std::vector<GlobalEdgeId>& paths) {
  const WindowDemand& dem = problem.demands[static_cast<std::size_t>(d)];
  InstanceId id = firstId;
  for (const ResourceId r : problem.access[static_cast<std::size_t>(d)]) {
    const GlobalEdgeId base = pool.globalEdge(r, 0);
    const std::int32_t lastStart = dem.deadline - dem.processing + 1;
    for (std::int32_t start = dem.release; start <= lastStart; ++start) {
      InstanceRecord rec;
      rec.id = id++;
      rec.demand = d;
      rec.network = r;
      rec.u = start;
      rec.v = start + dem.processing - 1;
      rec.profit = dem.profit;
      rec.height = dem.height;
      rec.pathBegin = static_cast<std::int32_t>(paths.size());
      for (std::int32_t slot = rec.u; slot <= rec.v; ++slot) {
        paths.push_back(base + slot);
      }
      rec.pathEnd = static_cast<std::int32_t>(paths.size());
      records.push_back(rec);
    }
  }
}

template <class Problem>
InstanceUniverse::InstanceUniverse(const Problem& problem)
    : PoolConstants(problem) {
  for (DemandId d = 0; d < numDemands(); ++d) {
    expandDemand(problem, *this, d, numInstances(), instances_, pathPool_);
  }

  // Demand -> instances CSR. Instances were appended in ascending demand
  // order, so a counting pass suffices.
  demandOffset_.assign(static_cast<std::size_t>(numDemands()) + 1, 0);
  for (const InstanceRecord& rec : instances_) {
    ++demandOffset_[static_cast<std::size_t>(rec.demand) + 1];
  }
  for (std::size_t d = 0; d < static_cast<std::size_t>(numDemands()); ++d) {
    demandOffset_[d + 1] += demandOffset_[d];
  }
  demandInstances_.resize(instances_.size());
  {
    std::vector<std::int32_t> cursor(demandOffset_.begin(),
                                     demandOffset_.end() - 1);
    for (const InstanceRecord& rec : instances_) {
      demandInstances_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(rec.demand)]++)] = rec.id;
    }
  }

  // Global edge -> instances CSR.
  const auto numEdges = static_cast<std::size_t>(numGlobalEdges());
  edgeInstOffset_.assign(numEdges + 1, 0);
  for (const GlobalEdgeId e : pathPool_) {
    ++edgeInstOffset_[static_cast<std::size_t>(e) + 1];
  }
  for (std::size_t e = 0; e < numEdges; ++e) {
    edgeInstOffset_[e + 1] += edgeInstOffset_[e];
  }
  edgeInstances_.resize(pathPool_.size());
  {
    std::vector<std::int32_t> cursor(edgeInstOffset_.begin(),
                                     edgeInstOffset_.end() - 1);
    for (const InstanceRecord& rec : instances_) {
      for (std::int32_t p = rec.pathBegin; p < rec.pathEnd; ++p) {
        const GlobalEdgeId e = pathPool_[static_cast<std::size_t>(p)];
        edgeInstances_[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(e)]++)] = rec.id;
      }
    }
  }
}

InstanceUniverse InstanceUniverse::fromTreeProblem(const TreeProblem& problem) {
  return InstanceUniverse(problem);
}

InstanceUniverse InstanceUniverse::fromLineProblem(const LineProblem& problem) {
  return InstanceUniverse(problem);
}

const InstanceRecord& InstanceUniverse::instance(InstanceId i) const {
  checkIndex(i, numInstances(), "instance id");
  return instances_[static_cast<std::size_t>(i)];
}

std::span<const GlobalEdgeId> InstanceUniverse::path(InstanceId i) const {
  const InstanceRecord& rec = instance(i);
  return {pathPool_.data() + rec.pathBegin,
          static_cast<std::size_t>(rec.pathLength())};
}

std::span<const InstanceId> InstanceUniverse::instancesOfDemand(
    DemandId d) const {
  checkIndex(d, numDemands(), "demand id");
  const auto begin = demandOffset_[static_cast<std::size_t>(d)];
  const auto end = demandOffset_[static_cast<std::size_t>(d) + 1];
  return {demandInstances_.data() + begin,
          static_cast<std::size_t>(end - begin)};
}

std::span<const InstanceId> InstanceUniverse::instancesOnEdge(
    GlobalEdgeId e) const {
  checkIndex(e, numGlobalEdges(), "global edge id");
  const auto begin = edgeInstOffset_[static_cast<std::size_t>(e)];
  const auto end = edgeInstOffset_[static_cast<std::size_t>(e) + 1];
  return {edgeInstances_.data() + begin, static_cast<std::size_t>(end - begin)};
}

void InstanceUniverse::buildConflicts() {
  if (conflictsBuilt_) return;
  conflictOffset_.assign(static_cast<std::size_t>(numInstances()) + 1, 0);
  std::vector<InstanceId> buffer;
  // Two passes: count then fill, so conflictAdj_ is allocated exactly once.
  std::vector<std::vector<InstanceId>> rows(
      static_cast<std::size_t>(numInstances()));
  for (InstanceId i = 0; i < numInstances(); ++i) {
    conflictRow(*this, i, path(i), instancesOfDemand(instance(i).demand),
                buffer);
    rows[static_cast<std::size_t>(i)] = buffer;
  }
  std::int64_t total = 0;
  for (InstanceId i = 0; i < numInstances(); ++i) {
    conflictOffset_[static_cast<std::size_t>(i)] = total;
    total +=
        static_cast<std::int64_t>(rows[static_cast<std::size_t>(i)].size());
  }
  conflictOffset_[static_cast<std::size_t>(numInstances())] = total;
  conflictAdj_.resize(static_cast<std::size_t>(total));
  for (InstanceId i = 0; i < numInstances(); ++i) {
    std::copy(rows[static_cast<std::size_t>(i)].begin(),
              rows[static_cast<std::size_t>(i)].end(),
              conflictAdj_.begin() +
                  conflictOffset_[static_cast<std::size_t>(i)]);
  }
  conflictsBuilt_ = true;
}

std::span<const InstanceId> InstanceUniverse::conflictsOf(InstanceId i) const {
  checkThat(conflictsBuilt_, "buildConflicts() called", __FILE__, __LINE__);
  checkIndex(i, numInstances(), "instance id");
  const auto begin = conflictOffset_[static_cast<std::size_t>(i)];
  const auto end = conflictOffset_[static_cast<std::size_t>(i) + 1];
  return {conflictAdj_.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::int32_t InstanceUniverse::maxConflictDegree() const {
  checkThat(conflictsBuilt_, "buildConflicts() called", __FILE__, __LINE__);
  std::int64_t best = 0;
  for (InstanceId i = 0; i < numInstances(); ++i) {
    best = std::max(best, conflictOffset_[static_cast<std::size_t>(i) + 1] -
                              conflictOffset_[static_cast<std::size_t>(i)]);
  }
  return static_cast<std::int32_t>(best);
}

}  // namespace treesched
