// Demand-instance universe (paper §2 reformulation).
//
// For each demand a and each network T in Acc(owner(a)) the paper creates a
// *demand instance* — a copy of the demand pinned to T (for line networks
// with windows, additionally pinned to one execution segment, §7). This
// class materializes the full instance set D with:
//   * a global edge index space across all networks (dual variables beta
//     live on it);
//   * per-instance edge paths;
//   * the conflict relation (same demand, or same network + shared edge);
// The primal-dual framework and the distributed simulator operate purely on
// this structure. Tree-vs-line differences are confined to the pool
// constants and the per-demand expansion below, which the incremental
// `DynamicUniverse` (core/dynamic_universe.hpp) shares.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/demand.hpp"
#include "core/line_problem.hpp"
#include "core/tree_problem.hpp"

namespace treesched {

/// One demand instance: the demand's data plus the network it is pinned to
/// and its edge path on that network.
struct InstanceRecord {
  InstanceId id = kNoInstance;
  DemandId demand = 0;
  TreeId network = 0;  ///< TreeId or ResourceId depending on universe kind.
  /// Endpoints. Tree universes: the demand's vertices. Line universes:
  /// u = first slot, v = last slot of the execution segment.
  VertexId u = 0;
  VertexId v = 0;
  double profit = 1.0;
  double height = 1.0;
  std::int32_t pathBegin = 0;  ///< [pathBegin, pathEnd) into the path pool.
  std::int32_t pathEnd = 0;

  std::int32_t pathLength() const { return pathEnd - pathBegin; }
};

/// Group assignment + critical edges per instance: the layered
/// decomposition of §4.4 and §7 (built by decomp/layering.hpp).
struct Layering {
  std::int32_t numGroups = 0;
  /// group[i] in [0, numGroups); group 0 is processed first (epoch 1).
  std::vector<std::int32_t> group;
  /// CSR of critical edges per instance (global edge ids, sorted).
  std::vector<std::int32_t> criticalOffset{0};
  std::vector<GlobalEdgeId> criticalPool;
  /// Measured critical-set size Delta = max |pi(d)|.
  std::int32_t maxCriticalSize = 0;

  std::span<const GlobalEdgeId> critical(InstanceId i) const {
    const auto begin = criticalOffset[static_cast<std::size_t>(i)];
    const auto end = criticalOffset[static_cast<std::size_t>(i) + 1];
    return {criticalPool.data() + begin, static_cast<std::size_t>(end - begin)};
  }

  /// Appends the next instance's group and critical edges.
  void append(std::int32_t g, std::span<const GlobalEdgeId> edges) {
    group.push_back(g);
    criticalPool.insert(criticalPool.end(), edges.begin(), edges.end());
    criticalOffset.push_back(static_cast<std::int32_t>(criticalPool.size()));
    maxCriticalSize =
        std::max(maxCriticalSize, static_cast<std::int32_t>(edges.size()));
  }
};

enum class UniverseKind { Tree, Line };

/// Pool-level constants of the instance set of one problem: the network
/// axis, the global edge index, the profit range and, on lines, the
/// instance length range. Both universes derive from it, so the static
/// build and the dynamic view of a problem share one copy of each rule.
class PoolConstants {
 public:
  using Kind = UniverseKind;

  /// Validates `problem` (throws CheckError) before reading anything else.
  explicit PoolConstants(const TreeProblem& problem);
  explicit PoolConstants(const LineProblem& problem);

  Kind kind() const { return kind_; }
  std::int32_t numDemands() const { return numDemands_; }
  std::int32_t numNetworks() const { return numNetworks_; }
  std::int32_t numGlobalEdges() const { return edgeOffset_.back(); }

  /// Maps (network, local edge) to the global edge index: network t owns
  /// [globalEdge(t, 0), globalEdge(t, 0) + its edge or slot count).
  GlobalEdgeId globalEdge(TreeId network, EdgeId e) const;

  /// Profit range over the pool (1 when there are no demands).
  double profitMax() const { return profitMax_; }
  double profitMin() const { return profitMin_; }

  /// Line universes only: number of timeslots.
  std::int32_t lineSlots() const;

  /// Line universes: shortest and longest instance length (a demand's
  /// instances all last its processing time); 1 on tree universes.
  std::int32_t minLength() const { return minLength_; }
  std::int32_t maxLength() const { return maxLength_; }

 private:
  template <class Problem>
  void scanDemands(const Problem& problem);

  Kind kind_ = Kind::Tree;
  std::int32_t numDemands_ = 0;
  std::int32_t numNetworks_ = 0;
  std::int32_t lineSlots_ = 0;
  std::vector<std::int32_t> edgeOffset_{0};  ///< per network, + total
  double profitMax_ = 1.0;
  double profitMin_ = 1.0;
  std::int32_t minLength_ = 1;
  std::int32_t maxLength_ = 1;
};

/// Number of instances demand d of a validated problem expands to: one
/// per accessible network, and on lines one per admissible start slot.
std::int32_t instanceCount(const TreeProblem& problem, DemandId d);
std::int32_t instanceCount(const LineProblem& problem, DemandId d);

/// Appends demand d's instances, with ids firstId, firstId + 1, ..., to
/// `records` and their global-edge paths to `paths` (each record's
/// [pathBegin, pathEnd) indexes `paths`). The one expansion both
/// universes build from.
void expandDemand(const TreeProblem& problem, const PoolConstants& pool,
                  DemandId d, InstanceId firstId,
                  std::vector<InstanceRecord>& records,
                  std::vector<GlobalEdgeId>& paths);
void expandDemand(const LineProblem& problem, const PoolConstants& pool,
                  DemandId d, InstanceId firstId,
                  std::vector<InstanceRecord>& records,
                  std::vector<GlobalEdgeId>& paths);

/// True iff a and b are on the same network and share an edge (§2
/// "overlapping"), over either universe.
template <class Universe>
bool instancesOverlap(const Universe& universe, InstanceId a, InstanceId b) {
  const InstanceRecord& ra = universe.instance(a);
  const InstanceRecord& rb = universe.instance(b);
  if (ra.network != rb.network) return false;
  // Line paths are contiguous slot ranges, so compare ranges directly.
  if (universe.kind() == UniverseKind::Line) {
    return ra.u <= rb.v && rb.u <= ra.v;
  }
  // Scan the shorter path against a membership test on the longer one.
  const auto pa = universe.path(a);
  const auto pb = universe.path(b);
  const auto& shorter = pa.size() <= pb.size() ? pa : pb;
  const auto& longer = pa.size() <= pb.size() ? pb : pa;
  return std::any_of(shorter.begin(), shorter.end(), [&](GlobalEdgeId e) {
    return std::find(longer.begin(), longer.end(), e) != longer.end();
  });
}

/// True iff a and b overlap or belong to the same demand (§2
/// "conflicting"); a pair is schedulable together iff NOT conflicting.
template <class Universe>
bool instancesConflict(const Universe& universe, InstanceId a, InstanceId b) {
  if (a == b) return false;
  return universe.instance(a).demand == universe.instance(b).demand ||
         instancesOverlap(universe, a, b);
}

/// The §2 conflict row of instance `self`: every instance on an edge of
/// `path` plus every sibling of its demand, ascending and duplicate-free,
/// without `self`. Both universes derive their adjacency rows here.
template <class Universe>
void conflictRow(const Universe& universe, InstanceId self,
                 std::span<const GlobalEdgeId> path,
                 std::span<const InstanceId> siblings,
                 std::vector<InstanceId>& row) {
  row.clear();
  for (const GlobalEdgeId e : path) {
    const auto onEdge = universe.instancesOnEdge(e);
    row.insert(row.end(), onEdge.begin(), onEdge.end());
  }
  row.insert(row.end(), siblings.begin(), siblings.end());
  std::sort(row.begin(), row.end());
  row.erase(std::unique(row.begin(), row.end()), row.end());
  row.erase(std::remove(row.begin(), row.end(), self), row.end());
}

/// The full instance set D of one problem in flat CSR form: the
/// reference every dynamic view is gated against.
class InstanceUniverse : public PoolConstants {
 public:
  /// Enumerates instances of a tree problem: one per (demand, accessible
  /// network). `problem.validate()` is called first.
  static InstanceUniverse fromTreeProblem(const TreeProblem& problem);

  /// Enumerates instances of a line problem: one per (demand, accessible
  /// resource, admissible start slot). `problem.validate()` is called first.
  static InstanceUniverse fromLineProblem(const LineProblem& problem);

  std::int32_t numInstances() const {
    return static_cast<std::int32_t>(instances_.size());
  }

  const InstanceRecord& instance(InstanceId i) const;

  /// Edge path of instance `i` as global edge ids, in path order.
  std::span<const GlobalEdgeId> path(InstanceId i) const;

  /// All instances of one demand (ascending instance id).
  std::span<const InstanceId> instancesOfDemand(DemandId d) const;

  /// All instances whose path contains global edge `e` (ascending id).
  std::span<const InstanceId> instancesOnEdge(GlobalEdgeId e) const;

  bool overlapping(InstanceId a, InstanceId b) const {
    return instancesOverlap(*this, a, b);
  }
  bool conflicting(InstanceId a, InstanceId b) const {
    return instancesConflict(*this, a, b);
  }

  /// Builds the conflict adjacency (idempotent). Cost is
  /// sum over edges e of |instancesOnEdge(e)|^2; fine at simulation scale.
  void buildConflicts();
  bool conflictsBuilt() const { return conflictsBuilt_; }

  /// Conflict neighbours of `i` (excluding `i`), ascending. Requires
  /// buildConflicts() to have run.
  std::span<const InstanceId> conflictsOf(InstanceId i) const;

  /// Max conflict degree (requires buildConflicts()).
  std::int32_t maxConflictDegree() const;

 private:
  template <class Problem>
  explicit InstanceUniverse(const Problem& problem);

  std::vector<InstanceRecord> instances_;
  std::vector<GlobalEdgeId> pathPool_;

  // CSR: instances grouped by demand.
  std::vector<std::int32_t> demandOffset_;
  std::vector<InstanceId> demandInstances_;

  // CSR: instances grouped by global edge.
  std::vector<std::int32_t> edgeInstOffset_;
  std::vector<InstanceId> edgeInstances_;

  // CSR conflict adjacency.
  bool conflictsBuilt_ = false;
  std::vector<std::int64_t> conflictOffset_;
  std::vector<InstanceId> conflictAdj_;
};

}  // namespace treesched
