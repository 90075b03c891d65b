/**
 * @file
 * Per-flow validating sink.
 *
 * FlowSink terminates a stream of flow-tagged frames and checks it
 * *per flow*: every frame's integrity header must verify, and each
 * flow's embedded sequence numbers must advance without regression.
 * The paper's total-order transmit check remains valid within a flow
 * because both the driver and the NIC preserve posting order; across
 * flows no order is promised, so interleaving is never an error.  The
 * paper's fixed-size stream is the one-flow case.
 *
 * Two contracts, selected at construction:
 *  - lossless (transmit wire side): the path never drops, so a
 *    forward sequence jump (gap) is an error;
 *  - lossy (receive host side): MAC overruns legitimately shed
 *    frames, so gaps are counted but only duplicates/regressions and
 *    integrity failures are errors.
 */

#ifndef TENGIG_TRAFFIC_FLOW_SINK_HH
#define TENGIG_TRAFFIC_FLOW_SINK_HH

#include <cstdint>
#include <map>
#include <set>

#include "net/frame.hh"
#include "sim/stats.hh"

namespace tengig {

class FlowSink
{
  public:
    /** Validation results for one flow. */
    struct PerFlow
    {
        std::uint64_t frames = 0;
        std::uint64_t payloadBytes = 0;
        std::uint64_t gaps = 0;
        std::uint64_t duplicates = 0;
        std::uint32_t expected = 0; //!< next expected sequence number
    };

    explicit FlowSink(bool lossless = true) : lossless(lossless) {}

    /** Deliver one frame (header + payload, no CRC); descriptor-backed
     *  views validate in O(1) (see checkFrameView). */
    void deliver(const FrameView &v);

    /** Byte-buffer convenience overload. */
    void
    deliver(const std::uint8_t *bytes, unsigned len)
    {
        FrameView v;
        v.bytes = bytes;
        v.len = len;
        deliver(v);
    }

    /**
     * Announce that the NIC deliberately dropped @p seq of @p flow_id
     * under fault injection (a poisoned frame skipped at commit).  The
     * resulting hole in the flow's sequence space is then accounted as
     * an injected drop, not a gap error -- even on a lossless sink.
     * Must be called before the next frame of the flow is delivered,
     * which the NIC's in-order commit guarantees.
     */
    void noteInjectedDrop(std::uint32_t flow_id, std::uint32_t seq);

    /// @name Aggregate results
    /// @{
    std::uint64_t framesReceived() const { return frames.value(); }
    std::uint64_t payloadBytesReceived() const { return payload.value(); }
    std::uint64_t integrityErrors() const { return badPayload.value(); }
    std::uint64_t gapErrors() const { return gaps.value(); }
    std::uint64_t duplicateErrors() const { return duplicates.value(); }

    /** Sequence holes matched against noteInjectedDrop announcements
     *  (never part of errors()). */
    std::uint64_t injectedDrops() const { return injected.value(); }

    /** Everything that violates this sink's contract. */
    std::uint64_t
    errors() const
    {
        return badPayload.value() + duplicates.value() +
               (lossless ? gaps.value() : 0);
    }
    /// @}

    /// @name Per-flow results
    /// @{
    std::size_t flowsSeen() const { return perFlow.size(); }

    /** @return validation state for @p flow, or nullptr if unseen. */
    const PerFlow *flow(std::uint32_t flow_id) const;

    const std::map<std::uint32_t, PerFlow> &flows() const
    {
        return perFlow;
    }
    /// @}

    /** Received payload-size distribution (64-byte buckets). */
    const stats::Histogram &sizeHistogram() const { return sizeHist; }

  private:
    bool lossless;
    std::map<std::uint32_t, PerFlow> perFlow;
    /** Announced-but-not-yet-observed injected drops, per flow. */
    std::map<std::uint32_t, std::set<std::uint32_t>> notedDrops;

    stats::Counter frames;
    stats::Counter payload;
    stats::Counter badPayload;
    stats::Counter gaps;
    stats::Counter duplicates;
    stats::Counter injected;
    stats::Histogram sizeHist{64, 24};
};

} // namespace tengig

#endif // TENGIG_TRAFFIC_FLOW_SINK_HH
