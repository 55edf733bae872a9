#include "net/live_transport.hpp"

#include <algorithm>

#include "dist/sim_network.hpp"
#include "util/check.hpp"

namespace treesched {

namespace {

/// Every pool demand disconnected, over the networks the access lists
/// name (ids must be non-negative).
CommunicationGraph disconnectedGraph(
    const std::vector<std::vector<std::int32_t>>& access) {
  std::int32_t numNetworks = 0;
  for (const auto& list : access) {
    for (const std::int32_t t : list) {
      numNetworks = std::max(numNetworks, t + 1);
    }
  }
  return CommunicationGraph(access, numNetworks);
}

}  // namespace

std::unique_ptr<Transport> makeLiveTransport(
    std::int32_t numDemands,
    const std::vector<std::vector<std::int32_t>>& access,
    const LiveTransportConfig& config) {
  checkThat(numDemands > 0, "live transport needs a demand pool", __FILE__,
            __LINE__);
  checkThat(static_cast<std::int32_t>(access.size()) == numDemands,
            "one accessibility list per pool demand", __FILE__, __LINE__);
  switch (config.kind) {
    case LiveTransportKind::SyncBus:
      return std::make_unique<SimNetwork>(disconnectedGraph(access));
    case LiveTransportKind::Async:
      return std::make_unique<AlphaSynchronizer>(
          disconnectedGraph(access), ShardPlacement::identity(numDemands),
          config.async);
    case LiveTransportKind::Sharded: {
      const std::int32_t processors =
          config.async.shardProcessors > 0
              ? config.async.shardProcessors
              : std::max<std::int32_t>(1, numDemands / 8);
      return std::make_unique<AlphaSynchronizer>(
          disconnectedGraph(access),
          ShardPlacement::livePool(access, processors), config.async);
    }
  }
  throw CheckError("unknown LiveTransportKind");
}

const char* liveTransportKindName(LiveTransportKind kind) {
  switch (kind) {
    case LiveTransportKind::SyncBus:
      return "sync";
    case LiveTransportKind::Async:
      return "async";
    case LiveTransportKind::Sharded:
      return "sharded";
  }
  return "unknown";
}

LiveTransportKind parseLiveTransportKind(const std::string& name) {
  if (name == "sync") return LiveTransportKind::SyncBus;
  if (name == "async") return LiveTransportKind::Async;
  if (name == "sharded") return LiveTransportKind::Sharded;
  throw CheckError("unknown live transport kind '" + name +
                   "' (use sync, async or sharded)");
}

}  // namespace treesched
