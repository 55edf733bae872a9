#include "net/synchronizer.hpp"

#include <algorithm>
#include <array>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace treesched {

namespace {

/// Hosted-demand histogram buckets: wide dynamic range (a hot shard can
/// host thousands of demands) at bounded storage. constexpr so instrument
/// resolution allocates nothing (the NullSink zero-allocation gate).
constexpr std::array<double, 16> kHostedBuckets = {
    1,  2,   4,   8,    16,   32,   64,    128,
    256, 512, 1024, 2048, 4096, 8192, 16384, 32768};

}  // namespace

AlphaSynchronizer::AlphaSynchronizer(CommunicationGraph graph,
                                     ShardPlacement placement,
                                     const AsyncConfig& config)
    : graph_(std::move(graph)),
      placement_(std::move(placement)),
      hosts_(static_cast<std::size_t>(graph_.numNetworks())),
      links_(static_cast<std::size_t>(placement_.numProcessors)),
      phys_(placement_.numProcessors, config.link, config.seed),
      silentRoundCost_(config.link.latency.base),
      plane_(std::max<std::int32_t>(1, graph_.numDemands())) {
  checkThat(graph_.numDemands() == placement_.numDemands(),
            "placement covers the communication graph", __FILE__, __LINE__);
  for (DemandId d = 0; d < numProcessors(); ++d) {
    if (!graph_.connected(d)) continue;
    checkThat(placement_.isPlaced(d), "connected demands must be placed",
              __FILE__, __LINE__);
    tallyHosts(d, +1);
  }
  stats_.processorLoad.assign(
      static_cast<std::size_t>(placement_.numProcessors), 0);
}

bool AlphaSynchronizer::bumpTally(std::vector<Tally>& list, std::int32_t id,
                                  std::int32_t delta) {
  const auto pos = std::lower_bound(
      list.begin(), list.end(), id,
      [](const Tally& tally, std::int32_t key) { return tally.id < key; });
  if (pos == list.end() || pos->id != id) {
    checkThat(delta > 0, "tally entry present", __FILE__, __LINE__);
    list.insert(pos, Tally{id, delta});
    return true;
  }
  pos->count += delta;
  if (pos->count > 0) return false;
  list.erase(pos);
  return true;
}

void AlphaSynchronizer::tallyHosts(DemandId d, std::int32_t delta) {
  const std::int32_t p = processorOf(d);
  for (const std::int32_t t : graph_.networksOf(d)) {
    auto& hosts = hosts_[static_cast<std::size_t>(t)];
    if (!bumpTally(hosts, p, delta)) continue;
    // p just started or stopped hosting t: its link to every other host
    // of t gains or loses one shared network.
    for (const Tally& host : hosts) {
      if (host.id == p) continue;
      bumpTally(links_[static_cast<std::size_t>(p)], host.id, delta);
      bumpTally(links_[static_cast<std::size_t>(host.id)], p, delta);
    }
  }
}

template <typename Visit>
void AlphaSynchronizer::forEachNeighborOn(DemandId from, std::int32_t p,
                                          Visit&& visit) const {
  // `from` itself counts among the hosts of its own processor.
  const std::int32_t self = processorOf(from) == p ? 1 : 0;
  for (const std::int32_t t : graph_.networksOf(from)) {
    const auto& hosts = hosts_[static_cast<std::size_t>(t)];
    const auto host = std::lower_bound(
        hosts.begin(), hosts.end(), p,
        [](const Tally& tally, std::int32_t key) { return tally.id < key; });
    if (host == hosts.end() || host->id != p || host->count <= self) continue;
    for (const std::int32_t m : graph_.members(t)) {
      if (m != from && processorOf(m) == p && graph_.firstShared(from, m, t)) {
        visit(m);
      }
    }
  }
}

void AlphaSynchronizer::connectDemand(std::int32_t d) {
  checkIndex(d, numProcessors(), "AlphaSynchronizer::connectDemand");
  checkThat(!plane_.hasStaged() && pendingPayload_ == 0,
            "topology mutation only between rounds", __FILE__, __LINE__);
  checkThat(!graph_.connected(d), "a demand connects once", __FILE__,
            __LINE__);
  if (placement_.live && !placement_.isPlaced(d)) {
    const std::int32_t proc = placement_.placeDemand(d);
    if (ledgerOn_) ledgerPlacement(d, proc);
  }
  checkThat(placement_.isPlaced(d), "connected demands must be placed",
            __FILE__, __LINE__);
  graph_.connect(d);
  tallyHosts(d, +1);
}

void AlphaSynchronizer::disconnectDemand(std::int32_t d) {
  checkIndex(d, numProcessors(), "AlphaSynchronizer::disconnectDemand");
  checkThat(!plane_.hasStaged() && pendingPayload_ == 0,
            "topology mutation only between rounds", __FILE__, __LINE__);
  if (!graph_.connected(d)) return;
  tallyHosts(d, -1);
  graph_.disconnect(d);
  if (placement_.live) {
    placement_.removeDemand(d);
  }
}

void AlphaSynchronizer::broadcast(const Message& message) {
  checkIndex(message.from, numProcessors(), "AlphaSynchronizer::broadcast");
  const DemandId from = message.from;
  if (!graph_.connected(from)) return;
  const std::int32_t home = processorOf(from);
  // Same-processor neighbours: delivered from local memory at the round
  // boundary, never touching the wire.
  forEachNeighborOn(from, home, [&](DemandId d) { plane_.stage(d, message); });
  // One wire packet per remote processor hosting a neighbour, in
  // ascending processor order (the wire keys its draws by packet id);
  // the receiver fans it out to every hosted neighbour of the sender.
  remoteScratch_.clear();
  for (const std::int32_t t : graph_.networksOf(from)) {
    for (const Tally& host : hosts_[static_cast<std::size_t>(t)]) {
      if (host.id != home) remoteScratch_.push_back(host.id);
    }
  }
  std::sort(remoteScratch_.begin(), remoteScratch_.end());
  remoteScratch_.erase(
      std::unique(remoteScratch_.begin(), remoteScratch_.end()),
      remoteScratch_.end());
  for (const std::int32_t q : remoteScratch_) {
    phys_.send(home, q, message);
    ++pendingPayload_;
  }
}

void AlphaSynchronizer::endRound() {
  ++stats_.rounds;

  // Safe markers: every processor tells each physical neighbour it has
  // sent everything for this round. The markers ride the same lossy
  // links (acked, retransmitted) — they are the synchronizer's cost.
  bool anyWire = pendingPayload_ > 0;
  for (std::int32_t p = 0; p < placement_.numProcessors; ++p) {
    for (const Tally& link : links_[static_cast<std::size_t>(p)]) {
      phys_.send(p, link.id, Message{}, /*control=*/true);
      anyWire = true;
    }
  }

  // Round r+1 starts once all round-r payload and markers are delivered.
  if (anyWire) {
    phys_.flush();
  } else {
    // Fully local round (everything on one processor): charge the
    // nominal barrier cost so virtual time still advances.
    phys_.advanceTime(silentRoundCost_);
  }
  pendingPayload_ = 0;

  // Stage the fan-out of every wire packet to the hosted neighbours of
  // its sender; the plane then builds all demand-level inboxes (local
  // deliveries were staged at broadcast time) in canonical order.
  for (std::int32_t p = 0; p < placement_.numProcessors; ++p) {
    for (const PhysicalDelivery& delivery : phys_.delivered(p)) {
      forEachNeighborOn(delivery.payload.from, p, [&](DemandId d) {
        plane_.stage(d, delivery.payload);
      });
    }
  }
  phys_.drainDeliveries();
  const std::int64_t before = stats_.messages;
  plane_.deliver();

  accountPlaneRound(stats_, plane_);

  stats_.virtualTime = phys_.now();
  stats_.transmissions = phys_.transmissions();
  stats_.retransmissions = phys_.retransmissions();
  stats_.drops = phys_.drops();
  stats_.duplicates = phys_.duplicates();
  stats_.processorLoad = phys_.endpointLoad();

  const std::int64_t delivered = stats_.messages - before;
  if (roundsCtr_ != nullptr) {
    roundsCtr_->add(1);
    messagesCtr_->add(delivered);
    if (delivered > 0) busyRoundsCtr_->add(1);
    virtualTimeGauge_->set(stats_.virtualTime);
    transmissionsGauge_->set(static_cast<double>(stats_.transmissions));
    retransmissionsGauge_->set(static_cast<double>(stats_.retransmissions));
    dropsGauge_->set(static_cast<double>(stats_.drops));
    duplicatesGauge_->set(static_cast<double>(stats_.duplicates));
  }
  if (trace_ && delivered > 0) {
    tracer_->instant("deliver", "net", 0,
                     {{"round", stats_.rounds}, {"messages", delivered}});
  }
}

void AlphaSynchronizer::endSilentRounds(std::int64_t count) {
  checkThat(count >= 0, "silent round count non-negative", __FILE__, __LINE__);
  checkThat(!plane_.hasStaged() && pendingPayload_ == 0,
            "silent rounds must not drop queued messages", __FILE__, __LINE__);
  if (count == 0) return;
  plane_.clearInboxes();
  stats_.rounds += count;
  // Known-silent rounds are barrier-only: both sides of the fixed
  // schedule know nobody transmits, so the synchronizer charges the
  // nominal per-round cost without simulating marker traffic.
  phys_.advanceTime(static_cast<double>(count) * silentRoundCost_);
  stats_.virtualTime = phys_.now();
  if (roundsCtr_ != nullptr) {
    roundsCtr_->add(count);
    virtualTimeGauge_->set(stats_.virtualTime);
  }
}

void AlphaSynchronizer::attachTelemetry(Tracer* tracer,
                                        MetricsRegistry* metrics) {
  tracer_ = tracer;
  trace_ = tracer != nullptr && tracer->enabled();
  if (metrics != nullptr) {
    roundsCtr_ = &metrics->counter("net.rounds");
    busyRoundsCtr_ = &metrics->counter("net.busy_rounds");
    messagesCtr_ = &metrics->counter("net.messages");
    virtualTimeGauge_ = &metrics->gauge("net.virtual_time");
    transmissionsGauge_ = &metrics->gauge("net.transmissions");
    retransmissionsGauge_ = &metrics->gauge("net.retransmissions");
    dropsGauge_ = &metrics->gauge("net.drops");
    duplicatesGauge_ = &metrics->gauge("net.duplicates");
    if (placement_.live) {
      hostedHist_ =
          &metrics->histogram("net.shard_hosted_demands", kHostedBuckets);
      loadVarianceGauge_ = &metrics->gauge("net.shard_load_variance");
    }
  } else {
    roundsCtr_ = nullptr;
    busyRoundsCtr_ = nullptr;
    messagesCtr_ = nullptr;
    virtualTimeGauge_ = nullptr;
    transmissionsGauge_ = nullptr;
    retransmissionsGauge_ = nullptr;
    dropsGauge_ = nullptr;
    duplicatesGauge_ = nullptr;
    hostedHist_ = nullptr;
    loadVarianceGauge_ = nullptr;
  }
}

void AlphaSynchronizer::attachLedger(LedgerSink* ledger) {
  ledger_ = ledger;
  ledgerOn_ = ledger != nullptr && ledger->enabled();
}

void AlphaSynchronizer::ledgerPlacement(DemandId d, std::int32_t processor) {
  LedgerEvent ev;
  ev.demand = d;
  ev.kind = LedgerEventKind::Placement;
  ev.toProcessor = processor;
  ledger_->record(ev);
}

void AlphaSynchronizer::publishLoadTelemetry() {
  if (loadVarianceGauge_ == nullptr || !placement_.live) {
    return;
  }
  for (std::int32_t p = 0; p < placement_.numProcessors; ++p) {
    hostedHist_->record(
        static_cast<double>(placement_.liveDemandCount(p)));
  }
  loadVarianceGauge_->set(placement_.loadVariance());
}

RebalanceOutcome AlphaSynchronizer::rebalanceShards(
    const ShardRebalanceConfig& config) {
  checkThat(!plane_.hasStaged() && pendingPayload_ == 0,
            "topology mutation only between rounds", __FILE__, __LINE__);
  RebalanceOutcome outcome;
  if (!placement_.live || placement_.numProcessors <= 1) {
    return outcome;
  }
  const std::int64_t begin = trace_ ? tracer_->now() : 0;
  const ShardPlacement::RebalancePlan plan = placement_.planRebalance(
      config.threshold, config.seed, config.maxMoves);
  outcome.networksMoved = plan.networksMoved;
  outcome.demandsMoved = static_cast<std::int32_t>(plan.moves.size());
  outcome.loadVarianceBefore = plan.varianceBefore;
  outcome.loadVarianceAfter = plan.varianceAfter;

  // Apply each migration with the connect/disconnect bookkeeping split
  // around the placement change: host counts are keyed by placement, so
  // they come off while the old placement is still visible and go back
  // on under the new one.
  for (const ShardPlacement::Migration& move : plan.moves) {
    if (ledgerOn_) {
      LedgerEvent ev;
      ev.demand = move.demand;
      ev.kind = LedgerEventKind::Migration;
      ev.fromProcessor = move.from;
      ev.toProcessor = move.to;
      ledger_->record(ev);
    }
    tallyHosts(move.demand, -1);
    placement_.migrateDemand(move.demand, move.to);
    tallyHosts(move.demand, +1);
  }
  for (const auto& [net, to] : plan.anchorMoves) {
    placement_.retargetAnchor(net, to);
  }

  if (trace_) {
    tracer_->span("rebalance", "net", 0, begin,
                  {{"demands_moved", outcome.demandsMoved},
                   {"networks_moved", outcome.networksMoved}});
  }
  return outcome;
}

std::span<const Message> AlphaSynchronizer::inbox(std::int32_t p) const {
  checkIndex(p, numProcessors(), "AlphaSynchronizer::inbox");
  return plane_.inbox(p);
}

void AlphaSynchronizer::appendActiveInboxes(
    std::vector<std::int32_t>& out) const {
  const auto active = plane_.activeDests();
  out.insert(out.end(), active.begin(), active.end());
}

}  // namespace treesched
