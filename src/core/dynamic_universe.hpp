// Dynamic demand-instance universe: incremental universe & layering for
// unbounded demand streams.
//
// `InstanceUniverse` materializes the full pool — every instance any
// demand can ever create — up front; fine for one-shot solves, the main
// obstacle to unbounded online streams. `DynamicUniverse` keeps the same
// *id space* (instance ids, global edge ids and group numbers are
// pool-stable, so surviving instances never renumber and every
// hash-keyed decision is reproducible), but materializes records, edge
// paths, the conflict relation and the layering only for demands that
// are currently live. It is a view, not a fork: the pool constants,
// the per-demand expansion and the conflict predicates are the ones in
// core/universe.hpp, and the layerer calls the same per-instance rules
// as the static layering (decomp/layering.hpp).
//
//   * addDemand(d) expands d's instances with `expandDemand` (same
//     records, same paths, same ids as the from-scratch build), assigns
//     each one its group + critical edges through the `InstanceLayerer`
//     (per-instance-local by Lemma 4.2/4.3 and §7), and splices them
//     into the live conflict adjacency — O(affected) work, independent
//     of pool size.
//   * retireDemand(d) garbage-collects with the same exactness
//     discipline as raise purging: every symmetric reference is removed
//     (checked, not best-effort), the slab is freed, and a later
//     re-arrival rebuilds bit-identical state.
//
// The live view equals the from-scratch build restricted to live
// demands — `tests/dynamic_universe_test.cpp` gates that equivalence on
// every scenario preset, per epoch. Heavy per-instance state (records,
// paths, conflicts, critical edges) tracks live demands; only flat id
// indexes (a few bytes per pool id) stay pool-dense.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "core/line_problem.hpp"
#include "core/tree_problem.hpp"
#include "core/universe.hpp"

namespace treesched {

/// Cumulative cost accounting of one DynamicUniverse. The online solver
/// publishes the GC counts as `universe.*` metrics (the wall clocks stay
/// out of the deterministic registry); `bench_online` derives its
/// `universe_build_ms` / `mean_extend_us_per_arrival` columns from it.
struct UniverseStats {
  double buildMs = 0;            ///< one-time pool build (layerer + indexes)
  std::int64_t arrivals = 0;     ///< addDemand calls
  std::int64_t extendUs = 0;     ///< cumulative addDemand wall time (µs)
  std::int64_t gcDemands = 0;    ///< retireDemand calls
  std::int64_t gcInstances = 0;  ///< instances garbage-collected
  std::int64_t gcUs = 0;         ///< cumulative retireDemand wall time (µs)
};

/// Per-instance group + critical-edge assignment (the paper's layered
/// decomposition, §4.4 and §7), evaluated one instance at a time by the
/// rules the static layering uses (decomp/layering.hpp). Implementations
/// own the persistent per-network structures (tree decompositions and
/// pivot sets) so that layer() depends only on the instance itself —
/// the locality that makes layering maintenance O(arrival). numGroups() and maxCriticalSize()
/// are pool constants, measured over every instance the pool can ever
/// contain: group numbering and the protocol's stage plan never shift
/// as demands come and go.
class InstanceLayerer {
 public:
  virtual ~InstanceLayerer() = default;

  virtual std::int32_t numGroups() const = 0;

  virtual std::int32_t maxCriticalSize() const = 0;

  /// Returns rec's group and fills `critical` (empty on entry) with its
  /// critical edges pi(d), sorted and duplicate-free.
  virtual std::int32_t layer(const InstanceRecord& rec,
                             std::vector<GlobalEdgeId>& critical) const = 0;
};

class DynamicUniverse;

/// Structural view adapting a DynamicUniverse to the `Layering` shape
/// the templated protocol engine consumes (`numGroups`,
/// `maxCriticalSize`, `group[i]`, `critical(i)`) without materializing
/// pool-sized arrays. Obtained from DynamicUniverse::layeringView();
/// valid as long as the universe outlives it.
struct DynamicLayeringView {
  /// Indexing proxy so `view.group[i]` reads like `Layering::group[i]`.
  struct GroupIndex {
    const DynamicUniverse* universe = nullptr;
    std::int32_t operator[](std::size_t i) const;
  };

  std::int32_t numGroups = 0;
  std::int32_t maxCriticalSize = 0;
  GroupIndex group;

  std::span<const GlobalEdgeId> critical(InstanceId i) const;
};

/// The incrementally-maintained universe. Pool-level constants (id
/// space, global edge index, profit range, layering constants) are
/// fixed at construction from the problem; per-demand state exists only
/// between addDemand(d) and retireDemand(d). Query methods follow
/// `InstanceUniverse` exactly — templated framework/protocol code runs
/// on either — with live-restricted semantics: instance(i)/path(i)
/// require i live, instancesOfDemand(d) is empty for non-live d, and
/// instancesOnEdge/conflictsOf enumerate live instances only.
class DynamicUniverse : public PoolConstants {
 public:
  /// The pool problem, shared with the caller (never copied).
  using PoolProblem = std::variant<std::shared_ptr<const TreeProblem>,
                                   std::shared_ptr<const LineProblem>>;
  using LayererFactory =
      std::function<std::unique_ptr<InstanceLayerer>(const PoolConstants&)>;

  /// Validates the problem and derives the pool constants first; only
  /// then does `makeLayerer` build the layerer over them, so no
  /// structure ever reads an invalid problem.
  DynamicUniverse(PoolProblem problem, const LayererFactory& makeLayerer);

  /// Pool id-space size — NOT the live count. Dense per-instance arrays
  /// (dual lhs, MIS status) and WarmStart::priorLhs are sized by this.
  std::int32_t numInstances() const { return numInstances_; }

  /// Accessibility lists of the underlying problem (TreeIds or
  /// ResourceIds — both are the network axis of the universe).
  const std::vector<std::vector<std::int32_t>>& access() const;

  /// Pool instance count of demand d (live or not): how many instances
  /// addDemand(d) materializes.
  std::int32_t poolInstanceCount(DemandId d) const;

  // ---- Live mutation ----

  /// Materializes demand d's instances, layers them and splices them
  /// into the live conflict relation. O(affected): proportional to the
  /// demand's own paths plus the live instances they touch, independent
  /// of pool size. d must not be live.
  void addDemand(DemandId d);

  /// Garbage-collects demand d: every symmetric conflict/edge reference
  /// is removed (checked) and the slab is freed. d must be live.
  void retireDemand(DemandId d);

  bool isLive(DemandId d) const;
  std::int32_t numLiveDemands() const {
    return static_cast<std::int32_t>(liveDemands_.size());
  }
  /// The live demands, in no particular order (a retirement moves the
  /// last one into the freed slot): scans over the live set cost
  /// O(live), never O(pool).
  std::span<const DemandId> liveDemands() const { return liveDemands_; }
  std::int32_t numLiveInstances() const { return numLiveInstances_; }

  // ---- Live queries (InstanceUniverse-shaped) ----

  /// Record of live instance i (throws when i's demand is not live).
  const InstanceRecord& instance(InstanceId i) const;

  std::span<const GlobalEdgeId> path(InstanceId i) const;

  /// Live instances of demand d, ascending; empty when d is not live.
  /// A live demand always exposes its full pool id range.
  std::span<const InstanceId> instancesOfDemand(DemandId d) const;

  /// Live instances whose path contains edge e, ascending.
  std::span<const InstanceId> instancesOnEdge(GlobalEdgeId e) const;

  bool overlapping(InstanceId a, InstanceId b) const {
    return instancesOverlap(*this, a, b);
  }
  bool conflicting(InstanceId a, InstanceId b) const {
    return instancesConflict(*this, a, b);
  }

  /// The conflict relation is maintained incrementally — always built.
  bool conflictsBuilt() const { return true; }

  /// Live conflict neighbours of live instance i, ascending: exactly
  /// the from-scratch conflict adjacency intersected with live ids.
  std::span<const InstanceId> conflictsOf(InstanceId i) const;

  // ---- Layering ----

  std::int32_t groupOf(InstanceId i) const;
  std::span<const GlobalEdgeId> critical(InstanceId i) const;
  std::int32_t numGroups() const { return layerer_->numGroups(); }
  std::int32_t maxCriticalSize() const { return layerer_->maxCriticalSize(); }
  DynamicLayeringView layeringView() const;

  // ---- Cost accounting ----

  const UniverseStats& stats() const { return stats_; }

 private:
  /// Everything materialized for one live demand. Freed whole on
  /// retireDemand — steady-state memory tracks live demands.
  struct DemandSlab {
    std::vector<InstanceRecord> records;      ///< pool ids, pool order
    std::vector<GlobalEdgeId> pathPool;       ///< records index into this
    Layering layers;                          ///< by local instance
    /// Live conflict neighbours per local instance, sorted ascending.
    std::vector<std::vector<InstanceId>> conflicts;
    std::size_t livePos = 0;  ///< index in liveDemands_
  };

  const DemandSlab& slabOf(InstanceId i, DemandId& demand,
                           std::int32_t& local) const;
  std::vector<InstanceId>& conflictListOf(InstanceId i);

  PoolProblem problem_;  ///< outlives layerer_, which may point into it
  std::unique_ptr<InstanceLayerer> layerer_;
  std::int32_t numInstances_ = 0;

  // Pool-dense id indexes (4 bytes per pool id each): the stable-id
  // lookup tables. Everything heavier lives in per-demand slabs.
  std::vector<std::int32_t> instanceOffset_;  ///< demand -> pool id range
  std::vector<InstanceId> idPool_;            ///< iota; demand spans of it
  std::vector<DemandId> demandOf_;            ///< instance -> demand

  std::vector<std::unique_ptr<DemandSlab>> slabs_;  ///< null = not live
  /// Live instances per global edge, sorted ascending.
  std::vector<std::vector<InstanceId>> edgeLive_;

  std::vector<DemandId> liveDemands_;
  std::int32_t numLiveInstances_ = 0;
  UniverseStats stats_;
};

inline std::int32_t DynamicLayeringView::GroupIndex::operator[](
    std::size_t i) const {
  return universe->groupOf(static_cast<InstanceId>(i));
}

inline std::span<const GlobalEdgeId> DynamicLayeringView::critical(
    InstanceId i) const {
  return group.universe->critical(i);
}

inline DynamicLayeringView DynamicUniverse::layeringView() const {
  DynamicLayeringView view;
  view.numGroups = numGroups();
  view.maxCriticalSize = maxCriticalSize();
  view.group.universe = this;
  return view;
}

}  // namespace treesched
