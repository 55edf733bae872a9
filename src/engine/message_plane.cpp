#include "engine/message_plane.hpp"

#include <algorithm>

#include "net/transport.hpp"
#include "util/check.hpp"

namespace treesched {

MessagePlane::MessagePlane(std::int32_t numProcessors)
    : index_(numProcessors) {
  checkThat(numProcessors > 0, "message plane needs processors", __FILE__,
            __LINE__);
}

void MessagePlane::stage(std::int32_t dest, const Message& message) {
  checkIndex(dest, numProcessors(), "MessagePlane::stage dest");
  // The five columns grow in lockstep — one logical growth per row.
  if (stageDest_.size() == stageDest_.capacity()) {
    noteGrowth();
  }
  stageDest_.push_back(dest);
  stageKind_.push_back(message.kind);
  stageFrom_.push_back(message.from);
  stageInstance_.push_back(message.instance);
  stageValue_.push_back(message.value);
}

void MessagePlane::stageFanout(const Message& message,
                               const CommunicationGraph& graph) {
  const std::int32_t count = graph.degree(message.from);
  if (count == 0) return;
  if (fanouts_.size() == fanouts_.capacity()) {
    noteGrowth();
  }
  fanouts_.push_back({message, &graph, count});
  fanoutRows_ += count;
}

void MessagePlane::expandFanouts() {
  if (fanouts_.empty()) return;
  const std::size_t base = stageDest_.size();
  const std::size_t total = base + static_cast<std::size_t>(fanoutRows_);
  if (total > stageDest_.capacity()) {
    noteGrowth();  // the five columns grow in lockstep
  }
  stageDest_.resize(total);
  stageKind_.resize(total);
  stageFrom_.resize(total);
  stageInstance_.resize(total);
  stageValue_.resize(total);

  // Row offsets per fan-out: a prefix sum fixes every expansion's target
  // range up front, so the staged row order is exactly the serial
  // broadcast order no matter which shard writes it.
  if (fanouts_.size() > fanoutOffset_.capacity()) {
    noteGrowth();
  }
  fanoutOffset_.resize(fanouts_.size());
  std::int64_t offset = static_cast<std::int64_t>(base);
  for (std::size_t f = 0; f < fanouts_.size(); ++f) {
    fanoutOffset_[f] = offset;
    offset += fanouts_[f].count;
  }

  const auto expand = [this](std::size_t f) {
    const PendingFanout& fanout = fanouts_[f];
    auto row = static_cast<std::size_t>(fanoutOffset_[f]);
    fanout.graph->forEachNeighbor(fanout.message.from, [&](std::int32_t d) {
      stageDest_[row] = d;
      stageKind_[row] = fanout.message.kind;
      stageFrom_[row] = fanout.message.from;
      stageInstance_[row] = fanout.message.instance;
      stageValue_[row] = fanout.message.value;
      ++row;
    });
  };
  if (runner_ != nullptr && runner_->threads() > 1 && fanouts_.size() > 1) {
    const ParallelRunner::ShardPlan plan =
        runner_->plan(static_cast<std::int64_t>(fanouts_.size()));
    runner_->forShards(plan, [&](std::int32_t shard) {
      const std::int64_t end = plan.end(shard);
      for (std::int64_t f = plan.begin(shard); f < end; ++f) {
        expand(static_cast<std::size_t>(f));
      }
    });
  } else {
    for (std::size_t f = 0; f < fanouts_.size(); ++f) {
      expand(f);
    }
  }
  fanouts_.clear();
  fanoutRows_ = 0;
}

void MessagePlane::deliver() {
  // Retire the previous round's inboxes (touched destinations only).
  index_.reset();
  kindCount_.fill(0);

  expandFanouts();
  const std::size_t staged = stageDest_.size();
  if (staged > 0) {
    for (std::size_t row = 0; row < staged; ++row) {
      index_.count(stageDest_[row]);
    }
    index_.layout();
    if (static_cast<std::size_t>(index_.total()) > delivered_.capacity()) {
      noteGrowth();
    }
    if (static_cast<std::size_t>(index_.total()) > delivered_.size()) {
      delivered_.resize(static_cast<std::size_t>(index_.total()));
    }

    // Stable scatter of the SoA rows into the flat delivery buffer. The
    // canonical segment sort below makes the result independent of the
    // staging order anyway, but stability keeps the intermediate state
    // easy to reason about.
    for (std::size_t row = 0; row < staged; ++row) {
      delivered_[static_cast<std::size_t>(index_.place(stageDest_[row]))] =
          Message{stageKind_[row], stageFrom_[row], stageInstance_[row],
                  stageValue_[row]};
      ++kindCount_[static_cast<std::size_t>(stageKind_[row])];
    }
    index_.finish();

    // Canonical (sender, instance) order within every segment. Segments
    // are disjoint, so the sorts parallelize with no merge step.
    const auto sortSegment = [this](std::int32_t dest) {
      const auto begin = delivered_.begin() + index_.begin(dest);
      std::sort(begin, begin + index_.length(dest), canonicalMessageLess);
    };
    const auto touched = index_.touched();
    if (runner_ != nullptr && runner_->threads() > 1) {
      const ParallelRunner::ShardPlan plan =
          runner_->plan(static_cast<std::int64_t>(touched.size()));
      runner_->forShards(plan, [&](std::int32_t shard) {
        const std::int64_t end = plan.end(shard);
        for (std::int64_t t = plan.begin(shard); t < end; ++t) {
          sortSegment(touched[static_cast<std::size_t>(t)]);
        }
      });
    } else {
      for (const std::int32_t dest : touched) {
        sortSegment(dest);
      }
    }

    stageDest_.clear();
    stageKind_.clear();
    stageFrom_.clear();
    stageInstance_.clear();
    stageValue_.clear();
  }
  ++rounds_;
}

void MessagePlane::clearInboxes() {
  checkThat(!hasStaged(), "clearInboxes must not drop staged messages",
            __FILE__, __LINE__);
  index_.reset();
}

std::int64_t MessagePlane::capacityBytes() const {
  const std::size_t stagingRow = sizeof(std::int32_t) + sizeof(MessageKind) +
                                 sizeof(std::int32_t) + sizeof(std::int32_t) +
                                 sizeof(double);
  return static_cast<std::int64_t>(
      stageDest_.capacity() * stagingRow +
      delivered_.capacity() * sizeof(Message) +
      fanouts_.capacity() * sizeof(PendingFanout) +
      fanoutOffset_.capacity() * sizeof(std::int64_t) +
      static_cast<std::size_t>(index_.numKeys()) * 5 * sizeof(std::int32_t));
}

void accountPlaneRound(NetworkStats& stats, const MessagePlane& plane) {
  // O(#kinds) from the plane's histogram: no re-scan of the messages.
  if (plane.deliveredCount() > 0) {
    ++stats.busyRounds;
    stats.messages += plane.deliveredCount();
    const auto& kinds = plane.kindCounts();
    for (std::size_t kind = 0; kind < kinds.size(); ++kind) {
      if (kinds[kind] == 0) continue;
      const std::int32_t units =
          messagePayloadUnits(static_cast<MessageKind>(kind));
      stats.payload += kinds[kind] * units;
      stats.maxMessagePayload = std::max(stats.maxMessagePayload, units);
    }
  }
  stats.planeGrowthEvents = plane.growthEvents();
  stats.planeLastGrowthRound = plane.lastGrowthRound();
}

}  // namespace treesched
