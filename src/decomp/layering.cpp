#include "decomp/layering.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace treesched {

namespace {

/// Appends the wings of vertex y on the path u--v of `tree` (the path
/// edges adjacent to y, §4.4) as global edge ids with the given network
/// base offset. y must lie on the path.
void appendWingEdges(const TreeNetwork& tree, GlobalEdgeId base, VertexId y,
                     VertexId u, VertexId v, std::vector<GlobalEdgeId>& out) {
  if (y != u) {
    const EdgeId e = tree.edgeBetween(y, tree.stepToward(y, u));
    checkThat(e != kNoEdge, "wing toward u exists", __FILE__, __LINE__);
    out.push_back(base + e);
  }
  if (y != v) {
    const EdgeId e = tree.edgeBetween(y, tree.stepToward(y, v));
    checkThat(e != kNoEdge, "wing toward v exists", __FILE__, __LINE__);
    out.push_back(base + e);
  }
}

/// The Lemma 4.2 rule. The per-network state (decomposition, pivot
/// sets, local max depth, edge base) is built once per problem; layer()
/// then assigns one instance its group and critical edges from its own
/// endpoints alone. `problem` must outlive the rule.
class TreeLayerRule {
 public:
  TreeLayerRule(const TreeProblem& problem, const PoolConstants& pool,
                DecompositionKind kind)
      : problem_(&problem) {
    for (TreeId t = 0; t < problem.numNetworks(); ++t) {
      const TreeNetwork& tree = problem.networks[static_cast<std::size_t>(t)];
      decompositions_.push_back(buildDecomposition(tree, kind));
      pivotSets_.push_back(computePivotSets(tree, decompositions_.back()));
      localMaxDepth_.push_back(decompositions_.back().maxDepth());
      numGroups_ = std::max(numGroups_, localMaxDepth_.back());
      edgeBase_.push_back(pool.globalEdge(t, 0));
    }
  }

  std::int32_t numGroups() const { return numGroups_; }

  std::int32_t layer(const InstanceRecord& rec,
                     std::vector<GlobalEdgeId>& critical) const {
    const auto network = static_cast<std::size_t>(rec.network);
    const TreeNetwork& tree = problem_->networks[network];
    const TreeDecomposition& h = decompositions_[network];
    const GlobalEdgeId base = edgeBase_[network];

    // Group: instances captured deepest go first (paper's sigma reverses
    // the depth order, §4.4). 0-based: group = localDepth(max) - depth(mu).
    const VertexId mu = captureNode(tree, h, rec.u, rec.v);
    const std::int32_t group =
        localMaxDepth_[network] - h.depth[static_cast<std::size_t>(mu)];

    // Critical edges pi(d): wings of mu, plus wings of the bending point
    // of path(d) with respect to every pivot of C(mu).
    appendWingEdges(tree, base, mu, rec.u, rec.v, critical);
    for (const VertexId w :
         pivotSets_[network][static_cast<std::size_t>(mu)]) {
      const VertexId bend = tree.meetingPoint(rec.u, rec.v, w);
      appendWingEdges(tree, base, bend, rec.u, rec.v, critical);
    }
    std::sort(critical.begin(), critical.end());
    critical.erase(std::unique(critical.begin(), critical.end()),
                   critical.end());
    return group;
  }

 private:
  const TreeProblem* problem_;
  std::vector<TreeDecomposition> decompositions_;
  std::vector<std::vector<std::vector<VertexId>>> pivotSets_;
  std::vector<std::int32_t> localMaxDepth_;
  std::vector<GlobalEdgeId> edgeBase_;
  std::int32_t numGroups_ = 0;
};

/// The §7 rule: factor-2 length buckets against the pool's shortest
/// instance (shortest first), and the critical slots {start, mid, end}.
class LineLayerRule {
 public:
  explicit LineLayerRule(const PoolConstants& pool)
      : minLen_(pool.minLength()) {
    for (ResourceId r = 0; r < pool.numNetworks(); ++r) {
      edgeBase_.push_back(pool.globalEdge(r, 0));
    }
    if (pool.numDemands() > 0) numGroups_ = bucket(pool.maxLength()) + 1;
  }

  std::int32_t numGroups() const { return numGroups_; }

  std::int32_t layer(const InstanceRecord& rec,
                     std::vector<GlobalEdgeId>& critical) const {
    const GlobalEdgeId base = edgeBase_[static_cast<std::size_t>(rec.network)];
    const std::int32_t mid = (rec.u + rec.v) / 2;
    critical.push_back(base + rec.u);
    critical.push_back(base + mid);
    critical.push_back(base + rec.v);
    std::sort(critical.begin(), critical.end());
    critical.erase(std::unique(critical.begin(), critical.end()),
                   critical.end());
    return bucket(rec.v - rec.u + 1);
  }

 private:
  /// len in [2^g * Lmin, 2^(g+1) * Lmin).
  std::int32_t bucket(std::int32_t len) const {
    std::int32_t g = 0;
    while ((static_cast<std::int64_t>(minLen_) << (g + 1)) <= len) ++g;
    return g;
  }

  std::int32_t minLen_;
  std::vector<GlobalEdgeId> edgeBase_;
  std::int32_t numGroups_ = 0;
};

/// One pass over a static universe's instances through `rule`.
template <class Rule>
Layering layerAll(const InstanceUniverse& universe, const Rule& rule) {
  Layering lay;
  lay.numGroups = rule.numGroups();
  const auto numInst = static_cast<std::size_t>(universe.numInstances());
  lay.group.reserve(numInst);
  lay.criticalOffset.reserve(numInst + 1);
  std::vector<GlobalEdgeId> buffer;
  for (InstanceId i = 0; i < universe.numInstances(); ++i) {
    buffer.clear();
    const std::int32_t group = rule.layer(universe.instance(i), buffer);
    lay.append(group, buffer);
  }
  return lay;
}

/// A rule as the DynamicUniverse's layerer. maxCriticalSize is measured
/// once over every instance the pool can ever contain, so the
/// protocol's stage plan is identical whichever demands are live.
template <class Rule>
class RuleLayerer final : public InstanceLayerer {
 public:
  RuleLayerer(Rule rule, std::int32_t maxCriticalSize)
      : rule_(std::move(rule)), maxCriticalSize_(maxCriticalSize) {}

  std::int32_t numGroups() const override { return rule_.numGroups(); }
  std::int32_t maxCriticalSize() const override { return maxCriticalSize_; }
  std::int32_t layer(const InstanceRecord& rec,
                     std::vector<GlobalEdgeId>& critical) const override {
    return rule_.layer(rec, critical);
  }

 private:
  Rule rule_;
  std::int32_t maxCriticalSize_;
};

/// Critical-set size of `rec` under `rule`.
template <class Rule>
std::int32_t criticalSize(const Rule& rule, const InstanceRecord& rec,
                          std::vector<GlobalEdgeId>& buffer) {
  buffer.clear();
  rule.layer(rec, buffer);
  return static_cast<std::int32_t>(buffer.size());
}

}  // namespace

TreeLayeringResult buildTreeLayering(const TreeProblem& problem,
                                     const InstanceUniverse& universe,
                                     DecompositionKind kind) {
  checkThat(universe.kind() == UniverseKind::Tree, "tree universe", __FILE__,
            __LINE__);
  return {layerAll(universe, TreeLayerRule(problem, universe, kind))};
}

Layering buildLineLayering(const InstanceUniverse& universe) {
  checkThat(universe.kind() == UniverseKind::Line, "line universe", __FILE__,
            __LINE__);
  return layerAll(universe, LineLayerRule(universe));
}

std::string checkLayering(const InstanceUniverse& universe,
                          const Layering& layering) {
  const std::int32_t numInst = universe.numInstances();
  checkThat(static_cast<std::int32_t>(layering.group.size()) == numInst,
            "layering covers universe", __FILE__, __LINE__);
  for (InstanceId d1 = 0; d1 < numInst; ++d1) {
    // Critical edges must lie on the instance's own path.
    const auto p1 = universe.path(d1);
    for (const GlobalEdgeId e : layering.critical(d1)) {
      if (std::find(p1.begin(), p1.end(), e) == p1.end()) {
        std::ostringstream os;
        os << "critical edge " << e << " of instance " << d1
           << " is not on its path";
        return os.str();
      }
    }
    for (InstanceId d2 = 0; d2 < numInst; ++d2) {
      if (d1 == d2) continue;
      if (layering.group[static_cast<std::size_t>(d1)] >
          layering.group[static_cast<std::size_t>(d2)]) {
        continue;
      }
      if (!universe.overlapping(d1, d2)) continue;
      const auto p2 = universe.path(d2);
      bool hit = false;
      for (const GlobalEdgeId e : layering.critical(d1)) {
        if (std::find(p2.begin(), p2.end(), e) != p2.end()) {
          hit = true;
          break;
        }
      }
      if (!hit) {
        std::ostringstream os;
        os << "interference property violated: instance " << d1 << " (group "
           << layering.group[static_cast<std::size_t>(d1)] << ") vs instance "
           << d2 << " (group " << layering.group[static_cast<std::size_t>(d2)]
           << ")";
        return os.str();
      }
    }
  }
  return {};
}

DynamicUniverse makeDynamicTreeUniverse(
    std::shared_ptr<const TreeProblem> problem) {
  // The universe owns `problem`, so the rule's reference outlives it.
  const TreeProblem* p = problem.get();
  return DynamicUniverse(std::move(problem), [p](const PoolConstants& pool) {
    TreeLayerRule rule(*p, pool, DecompositionKind::Ideal);
    std::int32_t delta = 0;
    std::vector<GlobalEdgeId> buffer;
    for (DemandId d = 0; d < p->numDemands(); ++d) {
      const Demand& dem = p->demands[static_cast<std::size_t>(d)];
      for (const TreeId t : p->access[static_cast<std::size_t>(d)]) {
        InstanceRecord rec;
        rec.demand = d;
        rec.network = t;
        rec.u = dem.u;
        rec.v = dem.v;
        delta = std::max(delta, criticalSize(rule, rec, buffer));
      }
    }
    return std::make_unique<RuleLayerer<TreeLayerRule>>(std::move(rule),
                                                        delta);
  });
}

DynamicUniverse makeDynamicTreeUniverse(const TreeProblem& problem) {
  return makeDynamicTreeUniverse(std::make_shared<const TreeProblem>(problem));
}

DynamicUniverse makeDynamicLineUniverse(
    std::shared_ptr<const LineProblem> problem) {
  const LineProblem* p = problem.get();
  return DynamicUniverse(std::move(problem), [p](const PoolConstants& pool) {
    // A line instance's critical set depends only on its length, so one
    // instance per demand measures the pool's Delta.
    LineLayerRule rule(pool);
    std::int32_t delta = 0;
    std::vector<GlobalEdgeId> buffer;
    for (DemandId d = 0; d < p->numDemands(); ++d) {
      const WindowDemand& dem = p->demands[static_cast<std::size_t>(d)];
      InstanceRecord rec;
      rec.demand = d;
      rec.network = p->access[static_cast<std::size_t>(d)].front();
      rec.u = dem.release;
      rec.v = dem.release + dem.processing - 1;
      delta = std::max(delta, criticalSize(rule, rec, buffer));
    }
    return std::make_unique<RuleLayerer<LineLayerRule>>(std::move(rule),
                                                        delta);
  });
}

DynamicUniverse makeDynamicLineUniverse(const LineProblem& problem) {
  return makeDynamicLineUniverse(std::make_shared<const LineProblem>(problem));
}

}  // namespace treesched
