#include "fleet/health.hh"

#include <string>
#include <utility>

#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace tengig {

void
FleetHealthMonitor::addNode(NodeProbe probe)
{
    fatal_if(!probe.lastRetire || !probe.busy || !probe.queueEmpty,
             "fleet health probe for ", probe.name, " is incomplete");
    nodes.emplace_back(std::move(probe));
}

void
FleetHealthMonitor::sample()
{
    ++samples;
    for (NodeState &n : nodes) {
        // A wedged node (queue drained, pipeline busy) can never make
        // progress again; die now, naming the culprit, instead of
        // barriering forever on a dead instance.
        n.liveness.check(n.probe.queueEmpty(), n.probe.busy(),
                         [&n] {
                             return "[health] " + n.probe.name +
                                    " wedged\n" +
                                    (n.probe.dump ? n.probe.dump()
                                                  : std::string());
                         });

        Tick retired = n.probe.lastRetire();
        if (n.sampled && n.probe.busy() && retired == n.lastSeen) {
            // Busy but nothing retired all window: a missed heartbeat.
            // Stalled-but-recoverable (an induced freeze, a long
            // backlog) is degradation, not death -- count it, let the
            // per-node watchdog do the per-core diagnosis.
            ++misses;
            ++n.nodeMisses;
        }
        n.lastSeen = retired;
        n.sampled = true;
    }
}

std::uint64_t
FleetHealthMonitor::heartbeatMisses(unsigned node) const
{
    fatal_if(node >= nodes.size(), "fleet health node out of range: ",
             node);
    return nodes[node].nodeMisses.value();
}

void
FleetHealthMonitor::registerStats(obs::StatGroup &g)
{
    g.add("samples", samples, "barrier health sampling passes");
    g.add("heartbeat_misses", misses,
          "busy nodes observed making no firmware progress over a "
          "whole sync window");
    for (std::size_t i = 0; i < nodes.size(); ++i)
        g.group("node" + std::to_string(i))
            .add("heartbeat_misses", nodes[i].nodeMisses,
                 "missed heartbeats for this node");
}

} // namespace tengig
