#include "fleet/fleet_config.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "net/frame.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace tengig {

Tick
SwitchModelConfig::egressByteTicks() const
{
    return static_cast<Tick>(std::llround(byteTime10G * 10.0 / egressGbps));
}

Tick
FleetConfig::minRetransmitTimeout() const
{
    Tick maxWire = static_cast<Tick>(wireBytesForFrame(ethMaxFrameBytes)) *
                   sw.egressByteTicks();
    return 2 * sw.fabricLatencyTicks +
           static_cast<Tick>(sw.egressQueueFrames) * maxWire + maxWire +
           syncWindowTicks;
}

void
FleetConfig::validate() const
{
    fatal_if(nodes.empty(), "a fleet needs at least one node");
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        try {
            nodes[i].validate();
        } catch (const FatalError &e) {
            fatalWithContext(e, "node " + std::to_string(i));
        }
    }
    fatal_if(syncWindowTicks == 0, "fleet sync window must be nonzero");
    fatal_if(measureTicks == 0, "fleet measure window must be nonzero");
    sw.validate();
    fabricFaults.validate();

    fatal_if(fabricFaults.enabled() && topology == FleetTopology::None,
             "fabric faults need a forwarding topology (there is no "
             "fabric to fault on isolated instances)");
    fatal_if(reliable.enabled && topology == FleetTopology::None,
             "reliable delivery needs a forwarding topology");
    if (reliable.enabled) {
        fatal_if(sw.egressQueueFrames == 0,
                 "reliable delivery needs a bounded egress FIFO "
                 "(egressQueueFrames > 0) to bound the worst-case RTT");
        for (std::size_t i = 0; i < nodes.size(); ++i)
            fatal_if(!(nodes[i].txPaceRate > 0.0),
                     "reliable delivery requires paced transmit "
                     "posting (node ", i, " has txPaceRate ",
                     nodes[i].txPaceRate, "): a "
                     "wire-saturating source leaves the fabric no "
                     "headroom to drain retransmissions");
    }

    if (topology == FleetTopology::None)
        return;

    fatal_if(nodes.size() < 2,
             "forwarding topologies need >= 2 nodes, got ", nodes.size());
    fatal_if(topology == FleetTopology::Pairs && nodes.size() % 2 != 0,
             "pairs topology needs an even node count, got ",
             nodes.size());
    fatal_if(sw.fabricLatencyTicks < syncWindowTicks,
             "conservative lookahead violated: switch fabric latency (",
             sw.fabricLatencyTicks, " ticks) must be >= the sync window (",
             syncWindowTicks, " ticks) so frames sent in one window can "
             "only arrive in a later one");

    // Every validator that terminates forwarded frames keys on global
    // flow ids, so all profiles across the fleet must occupy disjoint
    // id ranges.  Nodes left on the default profiles (flow 0 each way)
    // fail here.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const NicConfig &n = nodes[i];
        fatal_if(!n.vfs.empty(), "fleet forwarding with per-node VFs is "
                 "unsupported: the vnic mux numbers its flow ranges "
                 "from 0 on every node (node ", i, ")");
        ranges.emplace_back(
            n.txTraffic.flowIdBase,
            static_cast<std::uint32_t>(n.txTraffic.flows.size()));
        if (n.rxTraffic.enabled())
            ranges.emplace_back(
                n.rxTraffic.flowIdBase,
                static_cast<std::uint32_t>(n.rxTraffic.flows.size()));
    }
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 1; i < ranges.size(); ++i)
        fatal_if(ranges[i].first < ranges[i - 1].first + ranges[i - 1].second,
                 "fleet flow-id ranges overlap: [", ranges[i - 1].first,
                 ", ", ranges[i - 1].first + ranges[i - 1].second,
                 ") and [", ranges[i].first, ", ",
                 ranges[i].first + ranges[i].second,
                 "); use FleetConfig::uniform or assign disjoint "
                 "flowIdBase values");
}

FleetConfig
FleetConfig::uniform(const NicConfig &base, unsigned count, bool forward)
{
    fatal_if(count == 0, "fleet needs at least one node");

    FleetConfig fc;
    fc.topology = forward ? FleetTopology::Ring : FleetTopology::None;

    std::uint32_t nextBase = 0;
    for (unsigned i = 0; i < count; ++i) {
        NicConfig n = base;
        // Private per-node traffic streams, splitmix64-derived from
        // (fleet seed, node, direction) like every other seeded site.
        std::uint64_t sm =
            fc.fleetSeed + 0x9e3779b97f4a7c15ULL * (i + 1);
        n.txTraffic.seed = splitmix64(sm);
        if (n.rxTraffic.enabled())
            n.rxTraffic.seed = splitmix64(sm);
        // Per-node fault streams: FaultClock derives a site's stream
        // from (plan seed, site id), so identically-configured nodes
        // sharing the template's seed would roll IDENTICAL fault
        // sequences at every site -- correlated "independent" faults
        // across the fleet.  Each node's plan seed therefore comes
        // from its own splitmix64 chain.  Harmless when faults are
        // disabled (the seed is never read).
        n.faults.seed = splitmix64(sm);
        if (forward) {
            n.txTraffic.flowIdBase = nextBase;
            nextBase += static_cast<std::uint32_t>(n.txTraffic.flows.size());
            if (n.rxTraffic.enabled()) {
                n.rxTraffic.flowIdBase = nextBase;
                nextBase +=
                    static_cast<std::uint32_t>(n.rxTraffic.flows.size());
            }
        }
        fc.nodes.push_back(std::move(n));
    }
    return fc;
}

} // namespace tengig
