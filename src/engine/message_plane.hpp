// Flat message plane: the allocation-free inbox hot path.
//
// The first-generation transports kept one std::vector<Message> mailbox
// per processor and re-sorted each of them every round — at production
// scale that is millions of small heap allocations and cache-hostile
// scattered mailboxes. The MessagePlane replaces all of them with one
// preallocated flat buffer per role:
//
//  * Staging is structure-of-arrays (kind / from / instance / value
//    columns plus a destination column): a broadcast fan-out appends one
//    row per (neighbour, message) with no per-mailbox allocation.
//  * deliver() runs a stable counting sort on the destination column
//    (engine/collate.hpp — touched destinations only, so a silent round
//    costs O(1)) and then sorts each destination's contiguous segment
//    into the canonical (sender, instance) order the Transport contract
//    requires. Segment sorts are independent, so an attached
//    ParallelRunner spreads them across the thread pool.
//  * inbox(p) is a zero-copy span into the flat delivery buffer.
//
// Every buffer is reused round over round: after warmup the plane
// performs zero heap allocations regardless of traffic. growthEvents()
// and lastGrowthRound() make that measurable — bench_parallel reports
// them, and the CI smoke keeps the claim honest.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/message.hpp"
#include "engine/collate.hpp"
#include "engine/parallel_runner.hpp"
#include "net/communication_graph.hpp"

namespace treesched {

struct NetworkStats;

class MessagePlane {
 public:
  explicit MessagePlane(std::int32_t numProcessors);

  std::int32_t numProcessors() const { return index_.numKeys(); }

  /// Optional thread pool for the per-destination segment sorts; nullptr
  /// (the default) sorts serially. The runner must outlive the plane or
  /// be detached with attachRunner(nullptr).
  void attachRunner(ParallelRunner* runner) { runner_ = runner; }

  /// Appends one (destination, message) row to the staging columns.
  void stage(std::int32_t dest, const Message& message);

  /// Queues a broadcast fan-out: one staged row per neighbour of
  /// `message.from` in `graph`, expanded at the round boundary. The graph
  /// must stay unchanged until deliver(); transports pass their
  /// communication graph, which only mutates between rounds. The row
  /// count is fixed here (CommunicationGraph::degree); the expansion
  /// walks the sender's networks (CommunicationGraph::forEachNeighbor),
  /// so a pair sharing two networks still gets one row. With a runner
  /// attached the expansion runs as a parallel section whose shards write
  /// disjoint precomputed row ranges (owned slots, merged by position —
  /// never by thread completion order), so the staged rows are exactly
  /// the serial expansion and the bit-identity gates stay green. This
  /// removes the serial per-neighbour staging loop from the transports'
  /// broadcast hot path.
  void stageFanout(const Message& message, const CommunicationGraph& graph);

  bool hasStaged() const {
    return !stageDest_.empty() || !fanouts_.empty();
  }
  std::int64_t stagedCount() const {
    return static_cast<std::int64_t>(stageDest_.size()) + fanoutRows_;
  }

  /// The round boundary: counting-sorts the staged rows by destination,
  /// canonically sorts every destination segment, and publishes the
  /// result as the new inboxes (previous inboxes are discarded). Clears
  /// the staging columns.
  void deliver();

  /// Empties every inbox without delivering (silent rounds). Staging must
  /// be empty — the caller checks, because dropping staged messages would
  /// violate the Transport contract.
  void clearInboxes();

  /// Messages delivered to `p` by the last deliver(), canonically sorted.
  std::span<const Message> inbox(std::int32_t p) const {
    const std::int32_t length = index_.length(p);
    if (length == 0) {
      return {};
    }
    return {delivered_.data() + index_.begin(p),
            static_cast<std::size_t>(length)};
  }

  /// Destinations with a non-empty inbox after the last deliver(),
  /// ascending. The O(active) alternative to scanning every processor.
  std::span<const std::int32_t> activeDests() const {
    return index_.touched();
  }

  /// Messages delivered by the last deliver().
  std::int64_t deliveredCount() const { return index_.total(); }

  /// Per-kind message counts of the last deliver() — lets transports
  /// account payload in O(#kinds) instead of re-scanning every message.
  const std::array<std::int64_t, kMessageKindCount>& kindCounts() const {
    return kindCount_;
  }

  std::int64_t rounds() const { return rounds_; }

  // ---- Allocation accounting (the bench-tracked hot-loop guarantee) ----
  std::int64_t growthEvents() const { return growthEvents_; }
  /// Round index (0-based deliver() count) of the last buffer growth;
  /// -1 if no buffer ever grew. Steady state == all rounds past this one.
  std::int64_t lastGrowthRound() const { return lastGrowthRound_; }
  std::int64_t capacityBytes() const;

 private:
  /// One queued broadcast fan-out: the message, a borrowed view of the
  /// graph its sender broadcasts over, and its row count.
  struct PendingFanout {
    Message message;
    const CommunicationGraph* graph = nullptr;
    std::int32_t count = 0;
  };

  void noteGrowth() {
    ++growthEvents_;
    lastGrowthRound_ = rounds_;
  }

  /// Expands every queued fan-out into staging rows (parallel when a
  /// runner is attached); called first by deliver().
  void expandFanouts();

  ParallelRunner* runner_ = nullptr;

  // Staging columns (SoA), appended in broadcast order within a round.
  std::vector<std::int32_t> stageDest_;
  std::vector<MessageKind> stageKind_;
  std::vector<std::int32_t> stageFrom_;
  std::vector<std::int32_t> stageInstance_;
  std::vector<double> stageValue_;

  // Deferred broadcast fan-outs (expanded at the round boundary) and the
  // per-fanout row offsets of the expansion (prefix sums, reused).
  std::vector<PendingFanout> fanouts_;
  std::vector<std::int64_t> fanoutOffset_;
  std::int64_t fanoutRows_ = 0;

  // Delivery state: per-destination segments of one flat buffer (which
  // never shrinks; the index's total() is the live prefix).
  std::vector<Message> delivered_;
  CollationIndex index_;

  std::array<std::int64_t, kMessageKindCount> kindCount_{};

  std::int64_t rounds_ = 0;
  std::int64_t growthEvents_ = 0;
  std::int64_t lastGrowthRound_ = -1;
};

/// Folds the plane's last deliver() into a transport's round accounting:
/// busy-round flag, message count, per-kind payload, max message size,
/// and the plane's allocation counters. Shared by SimNetwork and
/// AlphaSynchronizer so their accounting can never drift apart.
void accountPlaneRound(NetworkStats& stats, const MessagePlane& plane);

}  // namespace treesched
