// Round-synchronous simulated message passing (paper §5).
//
// The simulator models the synchronous CONGEST-style setting of the paper:
// computation proceeds in global rounds; a message broadcast in round r is
// delivered to every neighbour's mailbox at the end of the round and can be
// read in round r+1. Inboxes are sorted canonically (sender, instance) so
// that every processor consumes messages in a deterministic order — the
// keystone of bit-identical equivalence with the centralized engine.
//
// Delivery runs over the flat MessagePlane (engine/message_plane.hpp):
// broadcasts stage rows into preallocated SoA columns and the round
// boundary counting-sorts them into contiguous per-processor inbox
// segments — the round hot loop performs no per-message heap allocation.
//
// SimNetwork is the reliable reference implementation of the Transport
// interface (net/transport.hpp); the asynchronous lossy transport
// (net/synchronizer.hpp) must be observationally equivalent to it.
#pragma once

#include <cstdint>
#include <span>

#include "dist/message.hpp"
#include "engine/message_plane.hpp"
#include "net/transport.hpp"

namespace treesched {

class Counter;

/// Deterministic message bus over the communication graph (network
/// incidence, net/communication_graph.hpp). The graph is live:
/// SimNetwork is the reference implementation of the MutableTopology
/// capability (net/transport.hpp) alongside the Transport contract.
class SimNetwork : public Transport, public MutableTopology {
 public:
  explicit SimNetwork(CommunicationGraph graph);

  std::int32_t numProcessors() const override { return graph_.numDemands(); }

  /// Queues `message` for delivery to every neighbour of `message.from`
  /// at the end of the current round. The fan-out — per network of the
  /// sender, one row per neighbour — is deferred to the round boundary
  /// (MessagePlane::stageFanout), where it expands in parallel when a
  /// runner is attached.
  void broadcast(const Message& message) override;

  /// Ends the current round: delivers all queued messages into the
  /// recipients' inboxes (sorted canonically) and updates the stats.
  void endRound() override;

  /// Advances `count` rounds in which no processor transmits. Inboxes are
  /// cleared; busyRounds is unchanged.
  void endSilentRounds(std::int64_t count) override;

  /// Messages delivered to `p` by the last endRound().
  std::span<const Message> inbox(std::int32_t p) const override;

  void appendActiveInboxes(std::vector<std::int32_t>& out) const override;

  void attachRunner(ParallelRunner* runner) override {
    plane_.attachRunner(runner);
  }

  /// Publishes net.{rounds,busy_rounds,messages} counters into `metrics`
  /// and emits a "deliver" instant per busy round through `tracer`.
  /// Instruments are resolved here, once; the round hot loop stays
  /// allocation-free.
  void attachTelemetry(Tracer* tracer, MetricsRegistry* metrics) override;

  const NetworkStats& stats() const override { return stats_; }

  // ---- MutableTopology (the online churn engine, src/online/) ----
  //
  // Demands arrive and depart on a *running* bus: the plane, the stats
  // and the graph all persist, so consecutive epoch re-solves share one
  // warmed-up transport. Both calls require a round boundary (no staged
  // traffic).

  void connectDemand(std::int32_t p) override;
  void disconnectDemand(std::int32_t p) override;
  const CommunicationGraph& graph() const override { return graph_; }

 private:
  CommunicationGraph graph_;
  MessagePlane plane_;
  NetworkStats stats_;

  // Telemetry plane (null when detached).
  Tracer* tracer_ = nullptr;
  bool trace_ = false;  ///< tracer present and enabled
  Counter* roundsCtr_ = nullptr;
  Counter* busyRoundsCtr_ = nullptr;
  Counter* messagesCtr_ = nullptr;
};

}  // namespace treesched
