// Sparse "which ids were written" bookkeeping over a dense id space.
//
// A structure that is sized by a pool (alpha per demand, beta per edge,
// LHS per instance) but written in a small region per run can be reset
// in O(written) instead of O(pool): every write marks its id here, and
// the reset walks ids() only. One flag byte per id, allocated once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace treesched {

class TouchedIds {
 public:
  explicit TouchedIds(std::size_t size) : flag_(size, 0) {}

  /// Records `id` (once until the next clear()).
  void mark(std::int32_t id) {
    auto& flag = flag_[static_cast<std::size_t>(id)];
    if (flag != 0) return;
    flag = 1;
    ids_.push_back(id);
  }

  /// Marked ids, each once: ascending after sortIds(), otherwise in
  /// first-mark order.
  std::span<const std::int32_t> ids() const { return ids_; }

  /// Sorts ids() ascending. Incremental: the prefix sorted by the last
  /// call is merged with the ids marked since, not re-sorted.
  void sortIds() {
    const auto mid = ids_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    std::sort(mid, ids_.end());
    std::inplace_merge(ids_.begin(), mid, ids_.end());
    sorted_ = ids_.size();
  }

  /// Unmarks every id in O(marked).
  void clear() {
    for (const std::int32_t id : ids_) {
      flag_[static_cast<std::size_t>(id)] = 0;
    }
    ids_.clear();
    sorted_ = 0;
  }

 private:
  std::vector<std::uint8_t> flag_;
  std::vector<std::int32_t> ids_;
  std::size_t sorted_ = 0;  ///< length of the ascending prefix of ids_
};

}  // namespace treesched
