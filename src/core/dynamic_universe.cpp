#include "core/dynamic_universe.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"

namespace treesched {

namespace {

std::int64_t microsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Inserts `x` into sorted `v`, checking it was absent: every live-index
/// mutation is exact, never best-effort.
void insertSorted(std::vector<InstanceId>& v, InstanceId x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  checkThat(it == v.end() || *it != x, "live id not already indexed", __FILE__,
            __LINE__);
  v.insert(it, x);
}

/// Removes `x` from sorted `v`, checking it was present.
void eraseSorted(std::vector<InstanceId>& v, InstanceId x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  checkThat(it != v.end() && *it == x, "live id present for removal", __FILE__,
            __LINE__);
  v.erase(it);
}

}  // namespace

DynamicUniverse::DynamicUniverse(PoolProblem problem,
                                 const LayererFactory& makeLayerer)
    : PoolConstants(std::visit(
          [](const auto& p) {
            checkThat(p != nullptr, "pool problem provided", __FILE__,
                      __LINE__);
            return PoolConstants(*p);
          },
          problem)),
      problem_(std::move(problem)) {
  const auto start = std::chrono::steady_clock::now();
  layerer_ = makeLayerer(*this);
  checkThat(layerer_ != nullptr, "layerer provided", __FILE__, __LINE__);

  const auto demandCount = static_cast<std::size_t>(numDemands());
  instanceOffset_.assign(demandCount + 1, 0);
  std::visit(
      [this, demandCount](const auto& p) {
        for (std::size_t d = 0; d < demandCount; ++d) {
          instanceOffset_[d + 1] = instanceOffset_[d] +
                                   instanceCount(*p, static_cast<DemandId>(d));
        }
      },
      problem_);
  numInstances_ = instanceOffset_.back();
  idPool_.resize(static_cast<std::size_t>(numInstances_));
  demandOf_.resize(static_cast<std::size_t>(numInstances_));
  for (std::size_t d = 0; d < demandCount; ++d) {
    for (std::int32_t i = instanceOffset_[d]; i < instanceOffset_[d + 1]; ++i) {
      idPool_[static_cast<std::size_t>(i)] = i;
      demandOf_[static_cast<std::size_t>(i)] = static_cast<DemandId>(d);
    }
  }
  slabs_.resize(demandCount);
  edgeLive_.resize(static_cast<std::size_t>(numGlobalEdges()));
  stats_.buildMs = static_cast<double>(microsSince(start)) / 1000.0;
}

const std::vector<std::vector<std::int32_t>>& DynamicUniverse::access() const {
  return std::visit(
      [](const auto& p) -> const std::vector<std::vector<std::int32_t>>& {
        return p->access;
      },
      problem_);
}

std::int32_t DynamicUniverse::poolInstanceCount(DemandId d) const {
  checkIndex(d, numDemands(), "demand id");
  return instanceOffset_[static_cast<std::size_t>(d) + 1] -
         instanceOffset_[static_cast<std::size_t>(d)];
}

void DynamicUniverse::addDemand(DemandId d) {
  checkIndex(d, numDemands(), "demand id");
  checkThat(slabs_[static_cast<std::size_t>(d)] == nullptr,
            "demand not already live", __FILE__, __LINE__);
  const auto start = std::chrono::steady_clock::now();
  const std::int32_t base = instanceOffset_[static_cast<std::size_t>(d)];
  auto slab = std::make_unique<DemandSlab>();
  std::visit(
      [&](const auto& p) {
        expandDemand(*p, *this, d, base, slab->records, slab->pathPool);
      },
      problem_);
  const std::size_t count = slab->records.size();
  checkThat(static_cast<std::int32_t>(count) == poolInstanceCount(d),
            "expansion matches pool id range", __FILE__, __LINE__);

  // Layering: per-instance-local group + critical edges.
  std::vector<GlobalEdgeId> buffer;
  for (const InstanceRecord& rec : slab->records) {
    buffer.clear();
    const std::int32_t group = layerer_->layer(rec, buffer);
    slab->layers.append(group, buffer);
  }

  // Splice into the live edge index first, then derive each new
  // instance's conflict row with the from-scratch build's conflictRow —
  // restricted to live ids by construction.
  for (const InstanceRecord& rec : slab->records) {
    for (std::int32_t p = rec.pathBegin; p < rec.pathEnd; ++p) {
      insertSorted(edgeLive_[static_cast<std::size_t>(slab->pathPool[
                       static_cast<std::size_t>(p)])],
                   rec.id);
    }
  }
  const std::span<const InstanceId> siblings(
      idPool_.data() + base, count);
  slab->conflicts.resize(count);
  std::vector<InstanceId> row;
  for (std::size_t local = 0; local < count; ++local) {
    const InstanceRecord& rec = slab->records[local];
    conflictRow(*this, rec.id,
                {slab->pathPool.data() + rec.pathBegin,
                 static_cast<std::size_t>(rec.pathLength())},
                siblings, row);
    slab->conflicts[local] = row;
  }
  // Mirror the new rows into the other live demands' rows.
  for (std::size_t local = 0; local < count; ++local) {
    const InstanceId id = base + static_cast<InstanceId>(local);
    for (const InstanceId w : slab->conflicts[local]) {
      if (demandOf_[static_cast<std::size_t>(w)] != d) {
        insertSorted(conflictListOf(w), id);
      }
    }
  }

  slab->livePos = liveDemands_.size();
  liveDemands_.push_back(d);
  slabs_[static_cast<std::size_t>(d)] = std::move(slab);
  numLiveInstances_ += static_cast<std::int32_t>(count);
  ++stats_.arrivals;
  stats_.extendUs += microsSince(start);
}

void DynamicUniverse::retireDemand(DemandId d) {
  checkIndex(d, numDemands(), "demand id");
  checkThat(slabs_[static_cast<std::size_t>(d)] != nullptr, "demand live",
            __FILE__, __LINE__);
  const auto start = std::chrono::steady_clock::now();
  DemandSlab& slab = *slabs_[static_cast<std::size_t>(d)];
  const std::size_t count = slab.records.size();
  for (std::size_t local = 0; local < count; ++local) {
    const InstanceRecord& rec = slab.records[local];
    for (const InstanceId w : slab.conflicts[local]) {
      if (demandOf_[static_cast<std::size_t>(w)] != d) {
        eraseSorted(conflictListOf(w), rec.id);
      }
    }
    for (std::int32_t p = rec.pathBegin; p < rec.pathEnd; ++p) {
      eraseSorted(edgeLive_[static_cast<std::size_t>(
                      slab.pathPool[static_cast<std::size_t>(p)])],
                  rec.id);
    }
  }
  // Swap-remove from the live list; the moved demand keeps its slot.
  const DemandId last = liveDemands_.back();
  liveDemands_[slab.livePos] = last;
  slabs_[static_cast<std::size_t>(last)]->livePos = slab.livePos;
  liveDemands_.pop_back();
  slabs_[static_cast<std::size_t>(d)].reset();
  numLiveInstances_ -= static_cast<std::int32_t>(count);
  ++stats_.gcDemands;
  stats_.gcInstances += static_cast<std::int64_t>(count);
  stats_.gcUs += microsSince(start);
}

bool DynamicUniverse::isLive(DemandId d) const {
  checkIndex(d, numDemands(), "demand id");
  return slabs_[static_cast<std::size_t>(d)] != nullptr;
}

const DynamicUniverse::DemandSlab& DynamicUniverse::slabOf(
    InstanceId i, DemandId& demand, std::int32_t& local) const {
  checkIndex(i, numInstances_, "instance id");
  demand = demandOf_[static_cast<std::size_t>(i)];
  const auto* slab = slabs_[static_cast<std::size_t>(demand)].get();
  checkThat(slab != nullptr, "instance's demand live", __FILE__, __LINE__);
  local = i - instanceOffset_[static_cast<std::size_t>(demand)];
  return *slab;
}

std::vector<InstanceId>& DynamicUniverse::conflictListOf(InstanceId i) {
  DemandId demand = 0;
  std::int32_t local = 0;
  const DemandSlab& slab = slabOf(i, demand, local);
  return const_cast<DemandSlab&>(slab).conflicts[static_cast<std::size_t>(
      local)];
}

const InstanceRecord& DynamicUniverse::instance(InstanceId i) const {
  DemandId demand = 0;
  std::int32_t local = 0;
  const DemandSlab& slab = slabOf(i, demand, local);
  return slab.records[static_cast<std::size_t>(local)];
}

std::span<const GlobalEdgeId> DynamicUniverse::path(InstanceId i) const {
  DemandId demand = 0;
  std::int32_t local = 0;
  const DemandSlab& slab = slabOf(i, demand, local);
  const InstanceRecord& rec = slab.records[static_cast<std::size_t>(local)];
  return {slab.pathPool.data() + rec.pathBegin,
          static_cast<std::size_t>(rec.pathLength())};
}

std::span<const InstanceId> DynamicUniverse::instancesOfDemand(
    DemandId d) const {
  checkIndex(d, numDemands(), "demand id");
  if (slabs_[static_cast<std::size_t>(d)] == nullptr) return {};
  const auto begin = instanceOffset_[static_cast<std::size_t>(d)];
  const auto end = instanceOffset_[static_cast<std::size_t>(d) + 1];
  return {idPool_.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::span<const InstanceId> DynamicUniverse::instancesOnEdge(
    GlobalEdgeId e) const {
  checkIndex(e, numGlobalEdges(), "global edge id");
  const auto& live = edgeLive_[static_cast<std::size_t>(e)];
  return {live.data(), live.size()};
}

std::span<const InstanceId> DynamicUniverse::conflictsOf(InstanceId i) const {
  DemandId demand = 0;
  std::int32_t local = 0;
  const DemandSlab& slab = slabOf(i, demand, local);
  const auto& row = slab.conflicts[static_cast<std::size_t>(local)];
  return {row.data(), row.size()};
}

std::int32_t DynamicUniverse::groupOf(InstanceId i) const {
  DemandId demand = 0;
  std::int32_t local = 0;
  const DemandSlab& slab = slabOf(i, demand, local);
  return slab.layers.group[static_cast<std::size_t>(local)];
}

std::span<const GlobalEdgeId> DynamicUniverse::critical(InstanceId i) const {
  DemandId demand = 0;
  std::int32_t local = 0;
  return slabOf(i, demand, local).layers.critical(local);
}

}  // namespace treesched
