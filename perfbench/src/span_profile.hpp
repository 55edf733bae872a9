// In-memory span aggregator for the benchmark's traced runs.
//
// SpanProfile is a TraceSink (obs/trace.hpp) that folds every complete
// span into per-(name, tid) totals: count, total duration and self time
// (duration minus the part of it that child spans on the same tid
// cover). It keeps nothing per event, so a traced run's memory does not
// grow with its length, and after the first operation has shown every
// name it makes no allocation at all.
//
// Spans arrive when they close, so on one tid a parent arrives after
// all of its children. Each tid keeps a stack of closed spans whose
// parent has not closed yet; a closing span pops the entries that begin
// at or after its own begin (its children) and charges their durations
// to it. Child time is clamped to the parent's duration, so self time
// is never negative, and on a properly nested tid the self times of a
// tree sum to its root's duration.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

class SpanProfile final : public treesched::TraceSink {
 public:
  struct Totals {
    std::int64_t count = 0;
    std::int64_t totalMicros = 0;
    std::int64_t selfMicros = 0;
  };

  /// Most distinct span names one profile tracks; later names fold into
  /// no bucket (their time still counts as child time of their parent).
  static constexpr std::size_t kMaxNames = 32;
  /// Closed-but-unparented spans kept per tid. When full, the stack is
  /// collapsed into one entry; only a parent that begins inside that
  /// collapsed run can then be charged too little child time.
  static constexpr std::size_t kStackCapacity = 1024;
  /// Tids set up front. The parallel engine emits shard spans on tid
  /// shard + 1 with at most 8 shards per thread, so this covers up to 7
  /// threads; a higher tid is still handled but allocates on first sight.
  static constexpr std::size_t kPreallocatedTids = 64;

  SpanProfile();

  void event(const treesched::TraceEvent& e) override;

  /// Summed over every tid; zero when the name never closed.
  Totals total(std::string_view name) const;
  /// One tid only.
  Totals at(std::string_view name, std::int32_t tid) const;
  /// Instant events seen (raise/accept/reject/crash markers).
  std::int64_t instants() const { return instants_; }

 private:
  struct Closed {
    std::int64_t begin = 0;
    std::int64_t duration = 0;
  };
  struct TidState {
    std::vector<Closed> stack;  ///< reserved to kStackCapacity once
    std::array<Totals, kMaxNames> totals{};
  };

  /// Slot of `name`, registering it on first sight; -1 when full.
  int slotOf(const char* name);
  int findSlot(std::string_view name) const;
  TidState& tidState(std::int32_t tid);

  std::array<const char*, kMaxNames> names_{};
  std::size_t numNames_ = 0;
  std::vector<TidState> tids_;
  std::int64_t instants_ = 0;
};

}  // namespace perfbench
