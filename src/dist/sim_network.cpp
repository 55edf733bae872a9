#include "dist/sim_network.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace treesched {

SimNetwork::SimNetwork(CommunicationGraph graph)
    : graph_(std::move(graph)),
      plane_(std::max<std::int32_t>(1, graph_.numDemands())) {}

void SimNetwork::broadcast(const Message& message) {
  checkIndex(message.from, numProcessors(), "SimNetwork::broadcast");
  plane_.stageFanout(message, graph_);
}

void SimNetwork::connectDemand(std::int32_t p) {
  checkThat(!plane_.hasStaged(), "topology mutation only between rounds",
            __FILE__, __LINE__);
  graph_.connect(p);
}

void SimNetwork::disconnectDemand(std::int32_t p) {
  checkThat(!plane_.hasStaged(), "topology mutation only between rounds",
            __FILE__, __LINE__);
  graph_.disconnect(p);
}

void SimNetwork::endRound() {
  ++stats_.rounds;
  const std::int64_t before = stats_.messages;
  plane_.deliver();
  accountPlaneRound(stats_, plane_);
  const std::int64_t delivered = stats_.messages - before;
  if (roundsCtr_ != nullptr) {
    roundsCtr_->add(1);
    messagesCtr_->add(delivered);
    if (delivered > 0) busyRoundsCtr_->add(1);
  }
  if (trace_ && delivered > 0) {
    tracer_->instant("deliver", "net", 0,
                     {{"round", stats_.rounds}, {"messages", delivered}});
  }
}

void SimNetwork::endSilentRounds(std::int64_t count) {
  checkThat(count >= 0, "silent round count non-negative", __FILE__, __LINE__);
  checkThat(!plane_.hasStaged(), "silent rounds must not drop queued messages",
            __FILE__, __LINE__);
  if (count == 0) return;
  plane_.clearInboxes();
  stats_.rounds += count;
  if (roundsCtr_ != nullptr) roundsCtr_->add(count);
}

void SimNetwork::attachTelemetry(Tracer* tracer, MetricsRegistry* metrics) {
  tracer_ = tracer;
  trace_ = tracer != nullptr && tracer->enabled();
  if (metrics != nullptr) {
    roundsCtr_ = &metrics->counter("net.rounds");
    busyRoundsCtr_ = &metrics->counter("net.busy_rounds");
    messagesCtr_ = &metrics->counter("net.messages");
  } else {
    roundsCtr_ = nullptr;
    busyRoundsCtr_ = nullptr;
    messagesCtr_ = nullptr;
  }
}

std::span<const Message> SimNetwork::inbox(std::int32_t p) const {
  checkIndex(p, numProcessors(), "SimNetwork::inbox");
  return plane_.inbox(p);
}

void SimNetwork::appendActiveInboxes(std::vector<std::int32_t>& out) const {
  const auto active = plane_.activeDests();
  out.insert(out.end(), active.begin(), active.end());
}

}  // namespace treesched
