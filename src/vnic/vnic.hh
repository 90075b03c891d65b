/**
 * @file
 * SR-IOV-style virtual-function multiplexer (DESIGN.md §13).
 *
 * VnicMux multiplexes N virtual functions over the single shared
 * datapath.  Each VF owns a virtual send ring with its own doorbell
 * register (modeled here, not in the host driver: production batches
 * become visible to the scheduler only when the VF's doorbell ring
 * survives its tenant-private loss stream), a deterministic TxSchedule
 * drawn from its own traffic profile, token-bucket rate contracts, and
 * a DRR weight.  Arbitration happens at the two shared choke points:
 *
 *  - the *posting boundary* (descriptor-fetch scheduling): the host
 *    driver pulls frames through nextTxFrame(), which runs weighted
 *    DRR over the backlogged VFs and charges the winner's admission
 *    bucket.  This decides whose descriptors enter the shared
 *    DMA-read assist, in posting order.
 *  - the *MAC TX commit*: the firmware's in-order commit consults
 *    commitPeek()/commitAdmit() per frame, charging the owning VF's
 *    enforcement bucket.  A dry bucket stalls the commit (the
 *    pipeline is strictly in order -- that IS the contract), and the
 *    lazy time-based refill plus always-polling cores guarantee
 *    progress.
 *
 * Both buckets meter UDP payload bytes, so VfConfig::txRateGbps is a
 * goodput ceiling.  Receive direction: VF profiles merge into one
 * TrafficEngine (one serialized wire) with per-flow weights scaled so
 * every flow keeps its solo frame rate; arriving frames are policed
 * per VF (rxRateGbps) before the MAC, and per-tenant wire faults roll
 * on the owning VF's streams only.
 *
 * Frame ownership is carried by flow id: each VF owns a contiguous
 * range of the global flow-id space in each direction, so delivered
 * frames attribute in O(1) from their integrity header, and firmware
 * sequence numbers map to VFs through small rings recorded at posting
 * (tx) and MAC accept (rx) time.
 */

#ifndef TENGIG_VNIC_VNIC_HH
#define TENGIG_VNIC_VNIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.hh"
#include "net/frame.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "traffic/traffic_engine.hh"
#include "vnic/arbiter.hh"
#include "vnic/vf_config.hh"

namespace tengig {

namespace obs { class StatGroup; }

class VnicMux
{
  public:
    struct Config
    {
        std::vector<VfConfig> vfs;
        unsigned sendRingFrames = 1024; //!< tx vf-of-seq ring span
        static constexpr unsigned drrQuantumBytes = 2048;
        /** Frames a tenant writes into its virtual ring per doorbell. */
        static constexpr unsigned txProduceBatch = 64;
        static_assert(txProduceBatch >= 1,
                      "a tenant doorbell announces at least one frame");
    };

    /** @param injector Per-tenant fault source; null disables every
     *         vnic fault roll (doorbells always delivered). */
    VnicMux(EventQueue &eq, const Config &cfg, FaultInjector *injector);

    std::size_t vfCount() const { return vfs.size(); }
    const VfConfig &vfConfig(unsigned vf) const { return cfg.vfs[vf]; }

    /// @name Transmit posting boundary (DeviceDriver::Config::txFrameNext)
    /// @{
    /**
     * Pick the next frame to post as global frame number @p seq:
     * weighted DRR over backlogged VFs whose admission bucket covers
     * their head frame.  @return (global flow id, payload bytes), or
     * nullopt when nothing is eligible -- in which case a refill
     * wake-up is armed at the earliest bucket-eligibility tick and
     * onTxEligible fires then.
     */
    std::optional<std::pair<std::uint32_t, unsigned>>
    nextTxFrame(std::uint64_t seq);

    /** Install the "posting can resume" hook (driver resumeSend). */
    void
    setOnTxEligible(std::function<void()> fn)
    {
        onTxEligible = std::move(fn);
    }
    /// @}

    /// @name Firmware hooks (FwTasks::attachVnic)
    /// @{
    /** Owning VF of posted tx frame @p seq (valid until consumed). */
    unsigned
    txVfOf(std::uint64_t seq) const
    {
        return txSeqVf[seq % txSeqVf.size()];
    }

    /** Owning VF of stored rx frame @p seq (valid until processed). */
    unsigned
    rxVfOf(std::uint64_t seq) const
    {
        return rxSeqVf[seq % rxSeqVf.size()];
    }

    /** Would the MAC-commit gate admit frame @p seq now?  No charge. */
    bool commitPeek(std::uint64_t seq, unsigned len_bytes) const;

    /** Charge the owning VF's enforcement bucket for frame @p seq.
     *  @retval false The bucket is dry; the commit must stall. */
    bool commitAdmit(std::uint64_t seq, unsigned len_bytes);
    /// @}

    /// @name Receive direction
    /// @{
    /**
     * Merge every VF's rx profile into one engine profile.  Per-flow
     * weights are set to the flow's solo frame rate (vf_rate /
     * vf_mean_wire * flow_share), which makes the merged engine
     * reproduce each flow's solo rate exactly; the aggregate offered
     * rate is the sum of the VF rates.
     */
    static TrafficProfile mergedRxProfile(const std::vector<VfConfig> &vfs);

    /** Owning VF of a merged rx flow id. */
    unsigned rxVfOfFlow(std::uint32_t flow) const;

    /** Owning VF of a global tx flow id. */
    unsigned txVfOfFlow(std::uint32_t flow) const;

    /** First global tx flow id of @p vf's flow range. */
    std::uint32_t txFlowBase(unsigned vf) const
    {
        return txBases[vf];
    }

    /**
     * Ingress policer: charge @p payload_bytes against @p vf's rx
     * bucket.  @retval false The frame must be dropped (counted).
     */
    bool rxAdmit(unsigned vf, unsigned payload_bytes);

    /** Record that the MAC accepted (will store) a frame of @p vf. */
    void noteRxAccepted(unsigned vf);
    /// @}

    /// @name Delivery attribution (taps; validation is elsewhere)
    /// @{
    void noteTxDelivered(const FrameView &v);
    void noteRxDelivered(const FrameView &v);
    /// @}

    /** Register the per-tenant stat subtrees: @p g gains one child
     *  group per VF (named by VfConfig::name or "vf<i>"). */
    void registerStats(obs::StatGroup &g) const;

  private:
    struct Vf
    {
        std::unique_ptr<TxSchedule> sched; //!< null on rx-only VFs
        std::uint64_t schedIdx = 0;        //!< frames sampled from sched

        /// @name Virtual send ring (frames, not BDs)
        /// @{
        std::uint64_t produced = 0; //!< written by the tenant
        std::uint64_t visible = 0;  //!< announced by a delivered doorbell
        std::uint64_t served = 0;   //!< pulled by nextTxFrame
        DoorbellRecovery doorbell;
        /// @}

        /// @name Prefetched head frame (sampled once, served once)
        /// @{
        bool headValid = false;
        std::uint32_t headFlow = 0;
        unsigned headBytes = 0;
        /// @}

        TokenBucket admitBucket;  //!< posting-boundary rate gate
        TokenBucket commitBucket; //!< MAC TX commit rate gate
        TokenBucket rxBucket;     //!< ingress policer

        stats::Counter txPosted;
        stats::Counter txFrames;
        stats::Counter txPayload;
        stats::Counter rxAccepted;
        stats::Counter rxFrames;
        stats::Counter rxPayload;
        stats::Counter rxPoliced;
        stats::Counter commitStalls;
        stats::Counter admitDefers;
        stats::Counter dbRings;
    };

    /** Top up @p vf's virtual ring and ring its doorbell if it ran
     *  dry (production is batched; a lost doorbell leaves the batch
     *  invisible until the retry timer redelivers). */
    void ensureProduced(unsigned vf);
    bool backlogged(unsigned vf) const;
    void armRefill(Tick when);

    EventQueue &eq;
    Config cfg;
    FaultInjector *faults; //!< null: no vnic fault rolls at all

    std::vector<std::unique_ptr<Vf>> vfs;
    DrrScheduler drr;
    std::function<void()> onTxEligible;

    /// @name Flow-id ranges (cumulative bases, one past-the-end tail)
    /// @{
    std::vector<std::uint32_t> txBases;
    std::vector<std::uint32_t> rxBases;
    /// @}

    std::vector<unsigned> txSeqVf; //!< posting-seq -> VF ring
    std::vector<unsigned> rxSeqVf; //!< accept-seq -> VF ring
    std::uint64_t rxAcceptCount = 0;

    /// @name Posting-refill wake-up (earliest bucket eligibility)
    /// @{
    RecurringEvent refill;
    Tick refillAt = 0;
    /// @}
};

} // namespace tengig

#endif // TENGIG_VNIC_VNIC_HH
