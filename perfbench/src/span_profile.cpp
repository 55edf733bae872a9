#include "span_profile.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

SpanProfile::SpanProfile() { tidState(kPreallocatedTids - 1); }

int SpanProfile::slotOf(const char* name) {
  // Emission sites pass string literals, so pointer equality finds the
  // slot on the hot path; the string compare covers equal literals
  // from different translation units.
  for (std::size_t s = 0; s < numNames_; ++s) {
    if (names_[s] == name) return static_cast<int>(s);
  }
  for (std::size_t s = 0; s < numNames_; ++s) {
    if (std::strcmp(names_[s], name) == 0) return static_cast<int>(s);
  }
  if (numNames_ == kMaxNames) return -1;
  names_[numNames_] = name;
  return static_cast<int>(numNames_++);
}

int SpanProfile::findSlot(std::string_view name) const {
  for (std::size_t s = 0; s < numNames_; ++s) {
    if (name == names_[s]) return static_cast<int>(s);
  }
  return -1;
}

SpanProfile::TidState& SpanProfile::tidState(std::int32_t tid) {
  const auto index = static_cast<std::size_t>(std::max(tid, 0));
  if (index >= tids_.size()) {
    const std::size_t old = tids_.size();
    tids_.resize(index + 1);
    for (std::size_t t = old; t < tids_.size(); ++t) {
      tids_[t].stack.reserve(kStackCapacity);
    }
  }
  return tids_[index];
}

void SpanProfile::event(const treesched::TraceEvent& e) {
  if (e.ph != 'X') {
    ++instants_;
    return;
  }
  TidState& state = tidState(e.tid);
  const std::int64_t duration = std::max<std::int64_t>(e.durMicros, 0);

  std::int64_t childMicros = 0;
  auto& stack = state.stack;
  while (!stack.empty() && stack.back().begin >= e.tsMicros) {
    childMicros += stack.back().duration;
    stack.pop_back();
  }
  childMicros = std::min(childMicros, duration);

  const int slot = slotOf(e.name);
  if (slot >= 0) {
    Totals& totals = state.totals[static_cast<std::size_t>(slot)];
    ++totals.count;
    totals.totalMicros += duration;
    totals.selfMicros += duration - childMicros;
  }

  if (stack.size() == kStackCapacity) {
    // Collapse into one entry that keeps the earliest begin: a later
    // parent covering the whole run still pops it in one piece.
    Closed merged{stack.front().begin, 0};
    for (const Closed& c : stack) merged.duration += c.duration;
    stack.clear();
    stack.push_back(merged);
  }
  stack.push_back({e.tsMicros, duration});
}

SpanProfile::Totals SpanProfile::total(std::string_view name) const {
  Totals sum;
  const int slot = findSlot(name);
  if (slot < 0) return sum;
  for (const TidState& state : tids_) {
    const Totals& t = state.totals[static_cast<std::size_t>(slot)];
    sum.count += t.count;
    sum.totalMicros += t.totalMicros;
    sum.selfMicros += t.selfMicros;
  }
  return sum;
}

SpanProfile::Totals SpanProfile::at(std::string_view name,
                                    std::int32_t tid) const {
  const int slot = findSlot(name);
  if (slot < 0 || tid < 0 || static_cast<std::size_t>(tid) >= tids_.size()) {
    return {};
  }
  return tids_[static_cast<std::size_t>(tid)]
      .totals[static_cast<std::size_t>(slot)];
}

}  // namespace perfbench
