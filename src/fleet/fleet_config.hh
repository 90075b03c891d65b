/**
 * @file
 * Scale-out fleet configuration (DESIGN.md §15).
 *
 * A FleetConfig describes M independent NIC instances running
 * concurrently in one process, their wires meeting at a store-and-
 * forward switch model.  Time advances in bounded-lag sync windows of
 * W ticks: every instance runs its own event queue to the window edge
 * (in parallel, one instance per worker), then a single coordinator
 * pass moves the frames captured at each transmit wire through the
 * switch and schedules their arrivals at the destinations.  The switch
 * fabric latency L must satisfy L >= W (the conservative-simulation
 * lookahead), so a frame sent inside window w can only arrive in
 * window w+1 or later -- which is why the parallel run is exact: no
 * instance can be influenced mid-window by a peer.
 */

#ifndef TENGIG_FLEET_FLEET_CONFIG_HH
#define TENGIG_FLEET_FLEET_CONFIG_HH

#include <cstdint>
#include <vector>

#include "fault/fabric.hh"
#include "nic/nic_config.hh"
#include "sim/types.hh"

namespace tengig {

/** How transmit frames are steered across the fleet switch. */
enum class FleetTopology
{
    None,  //!< isolated instances: no forwarding, no switch
    Ring,  //!< node i transmits to node (i + 1) % M
    Pairs, //!< node i transmits to node i ^ 1 (requires even M)
};

/** Store-and-forward switch model parameters (src/fleet/switch.hh). */
struct SwitchModelConfig
{
    /**
     * Port-to-port fabric latency: a frame fully received from the
     * source wire at t reaches the destination egress queue at
     * t + fabricLatencyTicks.  Must be >= the fleet sync window
     * (lookahead); FleetConfig::validate enforces it.
     */
    Tick fabricLatencyTicks = 10 * tickPerUs;

    /** Egress serialization rate per output port. */
    double egressGbps = 10.0;

    /** Per-egress-port FIFO bound in frames; 0 = unbounded.  Frames
     *  arriving at a full queue are dropped and counted (per port as
     *  `switch.egress<i>.drops`). */
    unsigned egressQueueFrames = 256;

    /** Egress serialization time per on-wire byte at egressGbps. */
    Tick egressByteTicks() const;

    void validate() const;
};

/**
 * End-to-end reliable delivery for cross-node traffic (DESIGN.md
 * §16).  The sender (the fleet coordinator) keeps every offered frame
 * until its ack returns, retransmitting on timeout with bounded
 * exponential backoff -- the PR 5 doorbell-retry discipline applied
 * to the fabric; the receiver suppresses duplicates and injects
 * frames in per-flow sequence order, treating a MAC refusal as
 * backpressure to retry locally.  Off by default: the fleet then
 * carries no protocol state and runs bit-identical to a build without
 * the subsystem.
 */
struct ReliableDeliveryConfig
{
    bool enabled = false;

    // The retransmit timeout is FleetConfig::minRetransmitTimeout().

    /** Cap on timeout doublings (mirrors FaultPlan::doorbellBackoffMax). */
    static constexpr unsigned backoffMax = 6;

    /**
     * Retransmission window: at most this many retransmissions per
     * destination link per sync barrier.  Losses cluster -- every
     * frame killed by one flap down window shares a deadline -- so
     * unbounded retransmission fires synchronized bursts that overflow
     * the egress FIFO, get re-owed as EgressFull, and re-synchronize
     * at the next backoff.  The window spreads the recovery backlog
     * across barriers instead; deferred records stay due and go out
     * at the following barrier.
     */
    static constexpr unsigned retransmitWindow = 2;

    /** Receiver-side re-injection period after a MAC refusal.  A
     *  refusal means the MAC's store pipeline or buffer pool is
     *  momentarily full; both free on a frame-store timescale, so the
     *  retry period must stay near one max-frame wire time -- a lazy
     *  cadence drains reorder buffers slower than frames arrive and
     *  the backlog never catches up after a storm. */
    static constexpr Tick rxRetryTicks = tickPerUs;

    static_assert(retransmitWindow >= 1 && rxRetryTicks > 0,
                  "recovery must make progress at every barrier");
};

/**
 * A complete fleet: the per-node NIC configurations plus the switch,
 * windowing, and threading knobs.
 */
struct FleetConfig
{
    /** One NicConfig per instance; instance i is switch port i. */
    std::vector<NicConfig> nodes;

    FleetTopology topology = FleetTopology::Ring;

    /**
     * Worker threads running instances within a window; 0 = one per
     * hardware thread.  The thread count NEVER changes results: the
     * per-instance event streams and the barrier-time switch pass are
     * deterministic functions of the configuration alone.
     */
    unsigned threads = 1;

    /** Sync window W: instances run in parallel for W ticks between
     *  coordinator barriers. */
    Tick syncWindowTicks = 10 * tickPerUs;

    SwitchModelConfig sw;

    /**
     * Fabric fault domain (src/fault/fabric.hh): link flaps, per-
     * egress corruption/drop, node-stall episodes.  Disabled by
     * default (all rates zero): the chaos injector is then never
     * constructed and fleet runs are bit-identical to a build without
     * the subsystem.  Requires a forwarding topology when enabled.
     */
    FabricFaultPlan fabricFaults;

    /** End-to-end reliable delivery for cross-node traffic. */
    ReliableDeliveryConfig reliable;

    /**
     * Build the barrier-sampled fleet health monitor (per-node
     * heartbeats + fatal-on-wedge naming node and link) even without
     * fabric faults.  Always on when fabricFaults is enabled.
     */
    bool healthMonitor = false;

    /// @name Run window (mirrors NicController::run)
    /// @{
    Tick warmupTicks = 2 * tickPerMs;
    Tick measureTicks = 4 * tickPerMs;
    /// @}

    /** Root seed for per-node traffic stream derivation (uniform()). */
    std::uint64_t fleetSeed = 0xf1ee7ULL;

    void validate() const;

    /**
     * The reliable-delivery retransmit timeout: the smallest that can
     * never fire before an ack from a frame that was actually
     * delivered.  It is fabric latency both ways, plus a full egress
     * FIFO of max-size frames ahead of the data frame, plus its own
     * serialization, plus one sync window of barrier quantization.
     * Requires a bounded egress FIFO.
     */
    Tick minRetransmitTimeout() const;

    /**
     * Build an M-node fleet from one template config.  Each node gets
     * a splitmix64-derived private seed for its transmit profile, for
     * a receive profile with flows, and for its fault plan, in that
     * order.  When @p forward is set, each node's profiles also get a
     * disjoint global flow-id range, so frames forwarded across the
     * switch never collide with any destination's own flows.  A node
     * with an empty rxTraffic receives only what its peers forward.
     */
    static FleetConfig uniform(const NicConfig &base, unsigned count,
                               bool forward = true);
};

} // namespace tengig

#endif // TENGIG_FLEET_FLEET_CONFIG_HH
