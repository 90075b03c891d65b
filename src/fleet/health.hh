/**
 * @file
 * Fleet-level node failure detection.
 *
 * The per-NIC watchdogs (src/fault/watchdog.hh) see only their own
 * instance; at fleet scale the interesting question is asked at the
 * sync-window barriers, where the coordinator can observe every node
 * coherently: is each node still retiring firmware work, and is any
 * node wedged (event queue drained with its pipeline busy)?
 *
 * FleetHealthMonitor samples per-node heartbeats at every barrier.  A
 * heartbeat is the node's firmware retirement clock: a busy node whose
 * last-retire tick did not advance across a whole window missed its
 * beat -- exactly the condition an induced node-stall episode creates,
 * so the chaos soak can assert detection.  A wedge (dead queue, busy
 * pipeline) is fatal and the error names the node and its egress link,
 * turning "the fleet hung" into "node 2 (egress link 3) wedged: ...".
 *
 * The monitor is barrier-time coordinator state: no worker thread ever
 * touches it, so health sampling cannot perturb determinism.
 */

#ifndef TENGIG_FLEET_HEALTH_HH
#define TENGIG_FLEET_HEALTH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/watchdog.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tengig {

namespace obs { class StatGroup; }

class FleetHealthMonitor
{
  public:
    /** How the coordinator observes one node without owning it. */
    struct NodeProbe
    {
        std::string name;                 //!< "node 2 (egress link 3)"
        std::function<Tick()> lastRetire; //!< max over the node's cores
        std::function<bool()> busy;       //!< pipeline has work
        std::function<bool()> queueEmpty; //!< event queue drained
        std::function<std::string()> dump; //!< pipeline report
    };

    void addNode(NodeProbe probe);

    /**
     * One barrier pass: check every node for a wedge (fatal, naming
     * the node) and count a heartbeat miss for every busy node whose
     * retirement clock did not advance since the previous sample.
     */
    void sample();

    /// @name Whole-run accounting
    /// @{
    std::uint64_t samplesRun() const { return samples.value(); }
    std::uint64_t heartbeatMissesTotal() const { return misses.value(); }
    std::uint64_t heartbeatMisses(unsigned node) const;
    /// @}

    /** Register the health surface into @p g ("health" subtree). */
    void registerStats(obs::StatGroup &g);

  private:
    struct NodeState
    {
        explicit NodeState(NodeProbe p) : probe(std::move(p)) {}

        NodeProbe probe;
        LivenessMonitor liveness;
        Tick lastSeen = 0;
        bool sampled = false; //!< first sample only records a baseline
        stats::Counter nodeMisses;
    };

    std::vector<NodeState> nodes;
    stats::Counter samples;
    stats::Counter misses;
};

} // namespace tengig

#endif // TENGIG_FLEET_HEALTH_HH
