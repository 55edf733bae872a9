#include "net/transport.hpp"

#include "util/check.hpp"

namespace treesched {

void Transport::appendActiveInboxes(std::vector<std::int32_t>& out) const {
  const std::int32_t n = numProcessors();
  for (std::int32_t p = 0; p < n; ++p) {
    if (!inbox(p).empty()) {
      out.push_back(p);
    }
  }
}

void Transport::attachRunner(ParallelRunner* /*runner*/) {}

void Transport::attachTelemetry(Tracer* /*tracer*/,
                                MetricsRegistry* /*metrics*/) {}

void Transport::attachLedger(LedgerSink* /*ledger*/) {}

void Transport::recordPlacementLoad() {}

RebalanceOutcome MutableTopology::rebalanceShards(
    const ShardRebalanceConfig& /*config*/) {
  return {};
}

void MutableTopology::setDemandWeight(std::int32_t /*demand*/,
                                      std::int64_t /*weight*/) {}

MutableTopology* mutableTopologyOf(Transport& transport) {
  return dynamic_cast<MutableTopology*>(&transport);
}

MutableTopology& requireMutableTopology(Transport& transport) {
  MutableTopology* topology = mutableTopologyOf(transport);
  checkThat(topology != nullptr,
            "transport supports live topology mutation (MutableTopology)",
            __FILE__, __LINE__);
  return *topology;
}

}  // namespace treesched
