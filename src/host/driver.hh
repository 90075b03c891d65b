/**
 * @file
 * Host device-driver model (Section 2 of the paper).
 *
 * Implements the driver half of the send/receive protocols of Figs. 1
 * and 2: it builds buffer descriptors in host-memory rings (two per
 * sent frame -- a 42-byte header BD and a payload BD, matching the
 * paper's discontiguous-regions observation), rings mailbox doorbells,
 * preallocates and replenishes the receive buffer pool, and consumes
 * completions.  Every frame it posts comes from a workload source that
 * names the frame's flow and size; every frame it receives goes to an
 * external validator (a per-flow FlowSink in NicController).
 *
 * Host CPU time and host-interconnect latency are untimed (paper §5);
 * the driver reacts instantly to NIC notifications.
 */

#ifndef TENGIG_HOST_DRIVER_HH
#define TENGIG_HOST_DRIVER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/host_memory.hh"
#include "net/frame.hh"
#include "sim/stats.hh"

namespace tengig {

/** A frame budget with no cap: send or receive for the whole run. */
constexpr std::uint64_t unlimitedFrames = ~std::uint64_t{0};

/** A buffer descriptor as written into the host rings (16 bytes). */
struct BufferDesc
{
    std::uint64_t hostAddr;
    std::uint32_t len;
    std::uint32_t flags;

    static constexpr std::uint32_t flagFirst = 1u << 0;
    static constexpr std::uint32_t flagLast = 1u << 1;
    static constexpr std::uint32_t flagTso = 1u << 2;
    /** Segment count for TSO BDs lives in flags[15:8]. */
    static constexpr unsigned segmentShift = 8;
    static constexpr unsigned bytes = 16;
};

/**
 * The driver: owns the host-side rings and buffer pools.
 */
class DeviceDriver
{
  public:
    struct Config
    {
        unsigned sendRingFrames = 1024;  //!< outstanding TX frames
        unsigned recvPoolBuffers = 1024; //!< outstanding RX buffers
        unsigned recvPostBatch = 64;     //!< BDs posted per doorbell
        /**
         * Deferred segmentation (the paper's future-work TSO, after
         * reference [4]): when > 1, each posted descriptor pair
         * covers this many frames -- one 42-byte header template BD
         * plus one large payload BD the NIC slices into frames.
         */
        unsigned tsoSegments = 1;

        /**
         * The workload source, asked once per frame: (flow id, payload
         * bytes) for posted frame number i, or nullopt when no frame
         * is eligible right now (a paced stream between frames, an
         * idle or rate-limited VF).  On nullopt the driver stops
         * posting without error; whoever owns the source calls
         * resumeSend() once a frame becomes eligible.  Every frame
         * carries its flow's own sequence space.  With TSO, the frames
         * of one group must share a payload size (the NIC slices one
         * buffer evenly), and only the group's first frame may be
         * declined.
         */
        std::function<std::optional<std::pair<std::uint32_t, unsigned>>(
            std::uint64_t)>
            txFrameNext;
    };

    DeviceDriver(HostMemory &host, const Config &cfg);

    /// @name NIC-facing doorbell wiring
    /// @{
    /** Install the doorbell the driver rings after posting send BDs. */
    void
    onSendDoorbell(std::function<void(std::uint64_t total_bds)> fn)
    {
        sendDoorbell = std::move(fn);
    }

    /** Install the doorbell for newly posted receive BDs. */
    void
    onRecvDoorbell(std::function<void(std::uint64_t total_bds)> fn)
    {
        recvDoorbell = std::move(fn);
    }
    /// @}

    /**
     * Set the transmit budget to @p frames in all (whole TSO groups)
     * and fill the send ring toward it.  The ring is kept as full as
     * the budget allows: every consumption refills it, so an unlimited
     * budget is the paper's saturation workload.
     */
    void startSend(std::uint64_t frames = unlimitedFrames);

    /** Refill the send ring up to the budget: after a consumption, or
     *  once the source has a frame again after declining one. */
    void resumeSend();

    /** Post nothing more: cap the budget at the frames posted. */
    void stopSend() { txBudget = txPosted; }

    /** Initial fill of the receive pool. */
    void primeReceivePool();

    /// @name NIC-side accessors (used by the DMA glue)
    /// @{
    Addr sendBdRingBase() const { return sendRing; }
    Addr recvBdRingBase() const { return recvRing; }
    Addr recvReturnRingBase() const { return recvReturnRing; }
    Addr txConsumedMailbox() const { return txConsumedAddr; }
    unsigned sendRingCapacityBds() const { return sendRingBds; }
    unsigned recvRingCapacityBds() const { return recvRingBds; }
    /// @}

    /// @name Completion entry points (the NIC's "interrupts")
    /// @{
    /** TX: the NIC consumed (transmitted) frames up to @p frames. */
    void txConsumedUpTo(std::uint64_t frames);

    /** RX: one completion descriptor landed in the host ring. */
    void rxCompletion(Addr host_buf, std::uint32_t len);
    /// @}

    /**
     * Hand every delivered receive frame (header + payload) to its
     * consumer: a per-flow FlowSink, plus whatever bookkeeping the
     * owner does per delivery (NicController's latency tap).  Clean
     * frames arrive as descriptor-backed views (O(1) validation).
     */
    void
    onRxDeliver(std::function<void(const FrameView &)> fn)
    {
        rxDeliver = std::move(fn);
    }

    /// @name Workload statistics
    /// @{
    std::uint64_t txFramesPosted() const { return txPosted; }
    std::uint64_t txFramesConsumed() const { return txConsumed; }
    std::uint64_t rxFramesDelivered() const { return rxDelivered.value(); }

    /** Zero-length completions: the NIC abandoned the frame's content
     *  DMA under fault injection; the buffer was recycled without
     *  delivering the (stale) bytes.  Graceful degradation, not a
     *  validation failure. */
    std::uint64_t rxFaultDropCount() const { return rxFaultDrops.value(); }

    std::uint64_t recvBdsPosted() const { return rxBdsPosted; }
    /// @}

    /**
     * (flow, flow-local sequence) the driver stamped into posted frame
     * number @p seq.  Ring-indexed by the send ring, so valid for any
     * frame not yet consumed -- which is exactly when the firmware can
     * still skip it.  Lets the fault plumbing translate a skipped
     * firmware sequence into the per-flow hole the wire-side validator
     * should expect.
     */
    std::pair<std::uint32_t, std::uint32_t>
    txFrameMeta(std::uint64_t seq) const
    {
        return txPostedMeta[seq % config.sendRingFrames];
    }

  private:
    bool postOneSendFrame();
    void postRecvBds(unsigned n);

    HostMemory &host;
    Config config;

    // TX state.
    Addr sendRing;            //!< BD ring base in host memory
    unsigned sendRingBds;
    Addr txBufBase;           //!< per-frame header+payload buffers
    std::uint64_t txPosted = 0;
    std::uint64_t txConsumed = 0;
    std::uint64_t txBudget = 0; //!< frames to post in all (startSend)
    std::function<void(std::uint64_t)> sendDoorbell;
    std::unordered_map<std::uint32_t, std::uint32_t> txFlowSeq;
    /** Ring of (flow, flow seq) per posted frame; see txFrameMeta(). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> txPostedMeta;

    // RX state.
    Addr recvRing;
    Addr recvReturnRing;      //!< completion descriptors land here
    Addr txConsumedAddr;      //!< 4-byte consumed-index mailbox
    unsigned recvRingBds;
    Addr rxBufBase;
    std::uint64_t rxBdsPosted = 0;
    std::uint64_t rxBuffersReturned = 0;
    std::function<void(std::uint64_t)> recvDoorbell;
    std::function<void(const FrameView &)> rxDeliver;

    stats::Counter rxDelivered;
    stats::Counter rxFaultDrops;
};

} // namespace tengig

#endif // TENGIG_HOST_DRIVER_HH
