// Alpha-synchronizer: the round-structured protocol over an async wire.
//
// The §5 protocol assumes synchronous rounds. An alpha-synchronizer
// (Awerbuch 1985) recovers them on an asynchronous network: in every
// round each processor sends its payload followed by a "safe" marker to
// every physical neighbour, and starts round r+1 only once the round-r
// markers of all neighbours have arrived. Because the underlying
// ack/retransmission links are reliable (net/async_network.hpp), every
// payload message broadcast in round r is in the recipients' inboxes
// before round r+1 — so, after canonical sorting, the protocol consumes
// exactly the inboxes the synchronous bus would produce, and the whole
// run is bit-identical to the round-synchronous execution under ANY
// latency model and ANY drop rate. Latency and loss cost virtual time,
// retransmissions and control traffic, never correctness.
//
// With a non-identity ShardPlacement one physical processor hosts many
// demands: intra-processor messages are local memory operations (free,
// instant), and a broadcast is sent once per remote processor rather than
// once per remote demand, so locality-aware placement measurably cuts
// wire traffic. The protocol still sees one logical endpoint per demand.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/message_plane.hpp"
#include "net/async_network.hpp"
#include "net/shard.hpp"
#include "net/transport.hpp"

namespace treesched {

class Counter;
class Gauge;
class Histogram;

/// Everything the asynchronous transport needs beyond the communication
/// graph: link behaviour, loss, and how demands map onto processors.
struct AsyncConfig {
  std::uint64_t seed = 1;  ///< keys every latency/drop draw
  AsyncLinkConfig link;
  ShardStrategy strategy = ShardStrategy::RoundRobin;
  /// Physical processors to shard onto; <= 0 keeps the paper's
  /// one-processor-per-demand model.
  std::int32_t shardProcessors = 0;
};

/// The synchronizer's topology is live (MutableTopology): demands can
/// connect and disconnect between rounds, exactly like on the
/// round-synchronous bus. The safe-marker bookkeeping — the physical
/// link set markers ride on — is derived from per-(network, processor)
/// host counts: processors p != q are linked while some network has a
/// connected member hosted on each. A mutation touches only the host
/// counts of the demand's own networks, never the whole graph. On a live
/// ShardPlacement arrivals are placed locality-aware and departures
/// tombstoned (net/shard.hpp).
class AlphaSynchronizer : public Transport, public MutableTopology {
 public:
  /// `graph` is the protocol's communication graph; `placement` maps its
  /// demands onto physical processors. Demands may be unplaced only
  /// while disconnected (live placements place them on connect).
  AlphaSynchronizer(CommunicationGraph graph, ShardPlacement placement,
                    const AsyncConfig& config);

  std::int32_t numProcessors() const override { return graph_.numDemands(); }
  void broadcast(const Message& message) override;
  void endRound() override;
  void endSilentRounds(std::int64_t count) override;
  std::span<const Message> inbox(std::int32_t p) const override;
  void appendActiveInboxes(std::vector<std::int32_t>& out) const override;
  void attachRunner(ParallelRunner* runner) override {
    plane_.attachRunner(runner);
  }

  /// Publishes net.{rounds,busy_rounds,messages} counters plus the
  /// async-wire gauges net.{virtual_time,transmissions,retransmissions,
  /// drops,duplicates} (mirrors of the cumulative NetworkStats fields,
  /// refreshed each round) and emits a "deliver" instant per busy round.
  void attachTelemetry(Tracer* tracer, MetricsRegistry* metrics) override;

  /// Records the placement (connectDemand on a live placement) and
  /// migration (rebalanceShards) events of the decision provenance
  /// ledger — the lifecycle steps only the wire layer can see.
  void attachLedger(LedgerSink* ledger) override;

  /// Publishes the net.shard_hosted_demands histogram +
  /// net.shard_load_variance gauge from the current live placement (the
  /// online solver's once-per-epoch call; no-op without an attached
  /// registry or on a non-live placement).
  void recordPlacementLoad() override { publishLoadTelemetry(); }

  const NetworkStats& stats() const override { return stats_; }

  const ShardPlacement& placement() const { return placement_; }

  // ---- MutableTopology -------------------------------------------------

  /// Connects demand `d`; on a live placement `d` is placed
  /// locality-aware first. Physical links appear only where one of d's
  /// networks first gains a host on a processor.
  void connectDemand(std::int32_t d) override;

  /// Disconnects demand `d`: links whose last shared network lost its
  /// host here are dropped from the safe-marker set, and on a live
  /// placement the demand is tombstoned out of its shard.
  void disconnectDemand(std::int32_t d) override;

  const CommunicationGraph& graph() const override { return graph_; }

  /// Epoch-boundary hot-shard rebalancing (live placements with > 1
  /// processor; everything else reports current variance and moves
  /// nothing). Applies the deterministic ShardPlacement::planRebalance
  /// plan: every migrated demand's host counts are removed at the old
  /// placement and re-added at the new one — the same incremental
  /// bookkeeping as connect/disconnect, so safe-marker traffic stays
  /// exact. Placement
  /// is wire accounting only: the schedule is bit-identical with or
  /// without rebalancing (tests/rebalance_test.cpp). Emits a
  /// "rebalance" span when a tracer is live; the load telemetry itself
  /// is published by recordPlacementLoad() once per epoch, whether or
  /// not rebalancing runs.
  RebalanceOutcome rebalanceShards(const ShardRebalanceConfig& config) override;

  /// Forwards the demand's weight (live instance count) into the live
  /// placement's weighted-load accounting; no-op on a fixed placement.
  void setDemandWeight(std::int32_t demand, std::int64_t weight) override {
    if (placement_.live) {
      placement_.setDemandWeight(demand, weight);
    }
  }

 private:
  std::int32_t processorOf(DemandId d) const {
    return placement_.processorOfDemand[static_cast<std::size_t>(d)];
  }

  /// A count keyed by id, kept in id-sorted lists: hosted demands per
  /// (network, processor), shared networks per physical link.
  struct Tally {
    std::int32_t id = 0;
    std::int32_t count = 0;
  };

  /// Adds `delta` (+1 or -1) to `id`'s tally in the sorted `list`;
  /// returns true when the entry appeared or disappeared.
  static bool bumpTally(std::vector<Tally>& list, std::int32_t id,
                        std::int32_t delta);

  /// Adds `delta` (+1 or -1) to the host count of demand `d`'s processor
  /// in each of d's networks, and the same to the link between that
  /// processor and every other host of a network it joins or leaves.
  void tallyHosts(DemandId d, std::int32_t delta);

  /// Calls `visit(m)` for every neighbour m of `from` hosted on processor
  /// `p`, skipping networks with no such host.
  template <typename Visit>
  void forEachNeighborOn(DemandId from, std::int32_t p, Visit&& visit) const;

  CommunicationGraph graph_;
  ShardPlacement placement_;
  /// Per network: connected members hosted on each processor.
  std::vector<std::vector<Tally>> hosts_;
  /// Per processor: networks with a host both here and on each linked
  /// processor — the safe-marker links.
  std::vector<std::vector<Tally>> links_;
  std::vector<std::int32_t> remoteScratch_;  ///< one broadcast's wire set
  AsyncNetwork phys_;
  double silentRoundCost_ = 0;
  std::int64_t pendingPayload_ = 0;  ///< wire packets since last boundary
  /// Demand-level inboxes: same-processor deliveries are staged during
  /// the round, wire deliveries at the boundary; one deliver() builds
  /// every inbox as a flat-buffer segment with zero hot-loop allocation.
  MessagePlane plane_;
  NetworkStats stats_;

  // Telemetry plane (null when detached).
  Tracer* tracer_ = nullptr;
  bool trace_ = false;  ///< tracer present and enabled
  Counter* roundsCtr_ = nullptr;
  Counter* busyRoundsCtr_ = nullptr;
  Counter* messagesCtr_ = nullptr;
  Gauge* virtualTimeGauge_ = nullptr;
  Gauge* transmissionsGauge_ = nullptr;
  Gauge* retransmissionsGauge_ = nullptr;
  Gauge* dropsGauge_ = nullptr;
  Gauge* duplicatesGauge_ = nullptr;
  Histogram* hostedHist_ = nullptr;   ///< net.shard_hosted_demands
  Gauge* loadVarianceGauge_ = nullptr;  ///< net.shard_load_variance

  // Decision provenance ledger (null or disabled when detached).
  LedgerSink* ledger_ = nullptr;
  bool ledgerOn_ = false;

  /// Emits one Placement event for a freshly placed demand.
  void ledgerPlacement(DemandId d, std::int32_t processor);

  /// Records the per-processor live loads + variance (live placements;
  /// refreshed at every recordPlacementLoad call — the online solver's
  /// epoch cadence, rebalancing or not).
  void publishLoadTelemetry();
};

}  // namespace treesched
