// Transport abstraction between the §5 protocol and the wire.
//
// The protocol engine (dist/protocol.cpp) is written against the
// round-synchronous programming model: broadcast to neighbours, end the
// round, read the inbox. A Transport supplies that model; how the bits
// actually move is the implementation's business. Two implementations
// exist today:
//
//  * SimNetwork (dist/sim_network.hpp) — the original reliable
//    round-synchronous bus: a round is an atomic delivery step.
//  * AlphaSynchronizer (net/synchronizer.hpp) — an alpha-synchronizer
//    running each round over an asynchronous, lossy, latency-modelled
//    physical network (net/async_network.hpp), optionally sharded so one
//    simulated processor hosts many demands (net/shard.hpp).
//
// Both read the same CommunicationGraph (net/communication_graph.hpp):
// network incidence, never an expanded adjacency. A demand's neighbours
// are the other connected members of its networks.
//
// The contract every Transport must honour for protocol correctness:
// a message broadcast in round r is present in every neighbour's inbox
// after endRound() — exactly once, even for a pair sharing several
// networks, with inboxes sorted canonically (canonicalMessageLess) — and
// in no other round. Any implementation honouring it runs the protocol
// bit-identically to the synchronous bus.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/message.hpp"
#include "net/communication_graph.hpp"

namespace treesched {

class ParallelRunner;
class Tracer;
class MetricsRegistry;
class LedgerSink;

/// Communication accounting of one protocol run. The first block is
/// filled by every transport; the async/lossy extensions stay zero/empty
/// on the reliable round-synchronous bus.
struct NetworkStats {
  std::int64_t rounds = 0;      ///< synchronous (protocol-level) rounds
  std::int64_t busyRounds = 0;  ///< rounds that delivered >= 1 message
  std::int64_t messages = 0;    ///< demand-level point-to-point deliveries
  std::int64_t payload = 0;     ///< total delivered payload (units of M)
  std::int32_t maxMessagePayload = 0;  ///< largest single message

  // ---- Async/lossy transport extensions ----
  double virtualTime = 0;  ///< simulated clock at the end of the run
  /// Physical transmission attempts (payload + control), incl. retries.
  std::int64_t transmissions = 0;
  std::int64_t retransmissions = 0;  ///< attempts after the first, per packet
  std::int64_t drops = 0;            ///< attempts lost in flight (incl. acks)
  /// Deliveries suppressed by the receiver's dedup path: retransmission
  /// races and duplicating-link faults (AsyncLinkConfig::
  /// duplicateProbability). Zero on the reliable bus.
  std::int64_t duplicates = 0;
  /// Physical deliveries handled per simulated processor (sharded runs:
  /// one entry per shard processor, not per demand). Empty on the bus.
  std::vector<std::int64_t> processorLoad;

  // ---- Message-plane allocation accounting (engine/message_plane.hpp) ----
  std::int64_t planeGrowthEvents = 0;  ///< inbox-buffer growths, whole run
  /// Round index of the last inbox-buffer growth; -1 when the plane never
  /// grew. Every later round ran allocation-free.
  std::int64_t planeLastGrowthRound = -1;
};

/// The protocol's view of the network: one endpoint per demand, broadcast
/// delivery to communication-graph neighbours at round boundaries.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::int32_t numProcessors() const = 0;

  /// Queues `message` for delivery to every neighbour of `message.from`
  /// at the end of the current round.
  virtual void broadcast(const Message& message) = 0;

  /// Ends the current round: every message broadcast since the previous
  /// boundary is in the recipients' inboxes (sorted canonically) after
  /// this returns.
  virtual void endRound() = 0;

  /// Advances `count` rounds in which no processor transmits. Inboxes are
  /// cleared; busyRounds is unchanged.
  virtual void endSilentRounds(std::int64_t count) = 0;

  /// Messages delivered to `p` by the last endRound(). A zero-copy view
  /// into the transport's delivery buffer; invalidated by the next
  /// endRound()/endSilentRounds().
  virtual std::span<const Message> inbox(std::int32_t p) const = 0;

  /// Appends (ascending, duplicate-free) every processor whose inbox is
  /// non-empty after the last endRound(). The default scans all
  /// processors; plane-backed transports override with the O(active)
  /// list, which is what lets the protocol's round loops iterate only
  /// processors that actually received something.
  virtual void appendActiveInboxes(std::vector<std::int32_t>& out) const;

  /// Attaches a thread pool the transport may use to parallelize round
  /// delivery (nullptr detaches; the default ignores it). The runner must
  /// stay alive until detached.
  virtual void attachRunner(ParallelRunner* runner);

  /// Attaches the telemetry plane (obs/): the transport publishes its
  /// round/message accounting into `metrics` and may emit delivery trace
  /// events through `tracer`. Either may be null; nullptr/nullptr
  /// detaches; the default ignores both. Telemetry is strictly
  /// read-only observation — attaching it never changes delivery
  /// behaviour (the bit-identity gates run with live sinks attached).
  /// Both objects must stay alive until detached.
  virtual void attachTelemetry(Tracer* tracer, MetricsRegistry* metrics);

  /// Attaches the decision provenance ledger (obs/ledger.hpp): a
  /// transport owning live shard placement records the demand lifecycle
  /// events it alone can see — placement on arrival, migration at
  /// rebalance. nullptr (or a disabled sink) detaches; the default
  /// ignores it. Same read-only, bit-identity-preserving contract as
  /// attachTelemetry. The sink must stay alive until detached.
  virtual void attachLedger(LedgerSink* ledger);

  /// Publishes the transport's current placement load into the attached
  /// metrics registry (net.shard_hosted_demands histogram +
  /// net.shard_load_variance gauge on a live sharded placement). The
  /// online solver calls this once per epoch boundary so the load
  /// time-series exists whether or not rebalancing is enabled; the
  /// default — and any transport with no placement — does nothing.
  /// Read-only observation; never changes delivery behaviour.
  virtual void recordPlacementLoad();

  virtual const NetworkStats& stats() const = 0;
};

/// Knobs of the epoch-boundary hot-shard rebalancer (live sharded
/// placements only). Rebalancing moves hosted demands between physical
/// processors — pure wire accounting, never the schedule — so it is safe
/// to run between any two epochs; `tests/rebalance_test.cpp` gates that
/// claim bit-identically.
struct ShardRebalanceConfig {
  bool enabled = false;
  /// A processor triggers migration when its live hosted load exceeds
  /// `threshold * mean` (mean = live demands / processors).
  double threshold = 1.25;
  /// Keys the deterministic tie-breaks (candidate network and target
  /// processor choice); never a stateful RNG.
  std::uint64_t seed = 1;
  /// Cap on migration iterations per rebalance call (each iteration
  /// moves one network or one overflow slice of demands).
  std::int32_t maxMoves = 64;
};

/// What one rebalance call did. Variances are per-processor live-load
/// population variances; before == after when nothing moved.
struct RebalanceOutcome {
  std::int32_t networksMoved = 0;
  std::int32_t demandsMoved = 0;
  double loadVarianceBefore = 0;
  double loadVarianceAfter = 0;
};

/// Live demand-level topology mutation — the capability the online churn
/// engine (src/online/) requires of its transport. Demands arrive and
/// depart on a *running* transport: buffers, placement and cumulative
/// stats persist, so consecutive epoch re-solves share one warmed-up
/// wire. Implemented by SimNetwork (the reference) and AlphaSynchronizer
/// (async/lossy wire, optionally sharded); a transport that cannot
/// mutate simply does not derive from this.
///
/// Contract (both mutations require a round boundary — no staged
/// traffic):
///  * connectDemand joins the demand to the member list of each of its
///    networks, so it becomes adjacent to every connected demand sharing
///    one. Connecting a connected demand throws CheckError.
///  * disconnectDemand leaves those lists; the endpoint stays addressable
///    with no neighbours, exactly like a departed demand. Disconnecting a
///    disconnected (never-connected or already-departed) demand is a
///    no-op.
class MutableTopology {
 public:
  virtual ~MutableTopology() = default;

  virtual void connectDemand(std::int32_t demand) = 0;

  virtual void disconnectDemand(std::int32_t demand) = 0;

  /// The live communication graph: one endpoint per pool demand, its
  /// member lists changed only by the two calls above.
  virtual const CommunicationGraph& graph() const = 0;

  /// Rebalances hosted demands across physical processors (requires a
  /// round boundary, like every mutation). Placement is transport
  /// accounting, not protocol state, so the schedule is bit-identical
  /// with or without rebalancing. The default — and any transport with
  /// no sharded placement, like SimNetwork — does nothing and reports
  /// zero variances.
  virtual RebalanceOutcome rebalanceShards(const ShardRebalanceConfig& config);

  /// Sets demand `demand`'s placement load weight — its live instance
  /// count, threaded in by the online solver as the dynamic universe
  /// grows each arrival's instances. Weighted loads feed placement
  /// (least-loaded choice), the rebalance planner and the variance
  /// accounting; they are wire accounting only and never change the
  /// schedule. The default — and any transport with no placement —
  /// ignores it.
  virtual void setDemandWeight(std::int32_t demand, std::int64_t weight);
};

/// The mutable-topology facet of `transport`, or nullptr when the
/// transport's topology is fixed.
MutableTopology* mutableTopologyOf(Transport& transport);

/// Checked variant: throws CheckError when the transport cannot mutate
/// its topology. The online solver funnels through this.
MutableTopology& requireMutableTopology(Transport& transport);

}  // namespace treesched
