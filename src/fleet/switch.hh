/**
 * @file
 * Store-and-forward fleet switch model.
 *
 * The switch is not an event-driven component: it is a deterministic
 * timing function evaluated by the fleet coordinator at window
 * barriers, after every instance has reached the barrier tick.  Each
 * offered frame (already fully received at its source wire -- MacTx
 * reports completion at end of frame, so store-and-forward receipt is
 * the capture tick itself) crosses the fabric in a fixed latency,
 * then serializes onto the destination egress wire: the egress port
 * frees at `busyUntil`, a bounded FIFO holds frames awaiting the
 * wire, and a frame arriving at a full queue is dropped and counted.
 *
 * Calls must be offered in nondecreasing send-tick order (the
 * coordinator sorts captures by (sentTick, srcPort, captureSeq)), so
 * queue occupancy and arrival times are pure functions of the offered
 * sequence -- independent of how many threads ran the instances.
 */

#ifndef TENGIG_FLEET_SWITCH_HH
#define TENGIG_FLEET_SWITCH_HH

#include <optional>
#include <vector>

#include "fleet/fleet_config.hh"
#include "sim/stats.hh"

namespace tengig {

namespace obs { class StatGroup; }

class FleetSwitch
{
  public:
    FleetSwitch(const SwitchModelConfig &cfg, unsigned ports);

    /**
     * Offer one frame to the fabric.
     *
     * @param src_port Source port (for accounting only).
     * @param dst_port Destination egress port.
     * @param sent_tick Tick the frame finished at the source wire;
     *        must be >= every previously offered frame's.
     * @param frame_bytes On-wire frame length incl. CRC.
     * @return Arrival tick at the destination wire (egress departure,
     *         store-and-forward), or nullopt if the egress FIFO was
     *         full and the frame was dropped.
     */
    std::optional<Tick> forward(unsigned src_port, unsigned dst_port,
                                Tick sent_tick, unsigned frame_bytes);

    /// @name Accounting
    /// @{
    std::uint64_t framesForwarded() const { return forwarded.value(); }
    std::uint64_t framesDropped() const { return dropped.value(); }

    /** Switch transit latency (send tick -> destination arrival). */
    const stats::Histogram &latencyHistogram() const { return latHist; }

    std::uint64_t portFramesOut(unsigned dst_port) const;
    /// @}

    /** Register counters into @p g (owner's "switch" subtree). */
    void registerStats(obs::StatGroup &g);

  private:
    SwitchModelConfig cfg;
    Tick egressByteTicks;   //!< serialization time per wire byte

    struct Port
    {
        Tick busyUntil = 0;
        /** Departure tick of each queued-or-in-flight frame, FIFO. */
        std::vector<Tick> departures;
        std::size_t head = 0; //!< departed prefix of `departures`
        stats::Counter framesOut;
        stats::Counter drops; //!< frames refused by this full FIFO
    };
    std::vector<Port> ports;

    Tick lastSent = 0; //!< monotonicity check

    stats::Counter forwarded;
    stats::Counter dropped;
    stats::Counter fwdBytes;
    /** 1 µs buckets, 64 of them + overflow. */
    stats::Histogram latHist{tickPerUs, 64};
};

} // namespace tengig

#endif // TENGIG_FLEET_SWITCH_HH
