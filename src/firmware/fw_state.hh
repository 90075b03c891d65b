/**
 * @file
 * Firmware architectural state.
 *
 * Every piece of state the handlers race on lives either in real
 * scratchpad storage (status bit arrays, fetched buffer descriptors,
 * completion descriptors, hardware progress words) or in C++ mirrors
 * with assigned scratchpad addresses used for access timing.  Indices
 * are monotonic 64-bit counters; ring positions are `counter % size`.
 */

#ifndef TENGIG_FIRMWARE_FW_STATE_HH
#define TENGIG_FIRMWARE_FW_STATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/scratchpad.hh"
#include "net/frame.hh"

namespace tengig {

/** Firmware organization, plus its fixed resource sizing. */
struct FwConfig
{
    /** Frame ordering strategy: lock+scan loops vs set/update RMW. */
    bool rmwEnhanced = false;

    /**
     * Ideal mode (Table 1): single-core reference run with no locks,
     * no ordering flags, and minimal dispatch, measuring the pure
     * per-task requirements.
     */
    bool idealMode = false;

    /** Deferred segmentation: frames per posted descriptor pair. */
    unsigned tsoSegments = 1;

    /// @name Resource sizing
    /// @{
    static constexpr unsigned bundleFrames = 8;   //!< frames per work unit
    static constexpr unsigned sendBdBatch = 32;   //!< BDs per send fetch
    static constexpr unsigned recvBdBatch = 16;   //!< BDs per receive fetch
    static constexpr unsigned txSlots = 128;      //!< SDRAM tx buffer slots
    static constexpr unsigned rxSlots = 128;      //!< SDRAM rx buffer slots
    static constexpr unsigned bdCacheBds = 128;   //!< BD cache entries/side
    static constexpr unsigned rxBdLowWater = 64;  //!< refetch threshold
    static constexpr unsigned slotBytes = 1536;   //!< SDRAM bytes per slot
    static constexpr unsigned maxCommitPerPass = 32;
    /// @}

    // Rings are indexed by counter % size over monotonic counters.
    static_assert(isPowerOfTwo(txSlots) && isPowerOfTwo(rxSlots) &&
                  isPowerOfTwo(bdCacheBds),
                  "slot rings and BD caches must be powers of two");
    static_assert(bundleFrames >= 1, "a work unit holds at least a frame");
};

/** Identifiers for the firmware's spin locks. */
enum class FwLock : unsigned
{
    SendDispatch, //!< send-side claim pointers
    RecvDispatch, //!< receive-side claim pointers
    TxFlag,       //!< software-only: TX status bit array
    TxOrder,      //!< software-only: TX commit scan
    RxFlag,
    RxOrder,
    RxBdPop,      //!< receive-BD ring consumption (both strategies)
    NumLocks
};

constexpr unsigned numFwLocks = static_cast<unsigned>(FwLock::NumLocks);

/**
 * All firmware state plus its scratchpad layout.
 */
class FwState
{
  public:
    FwState(Scratchpad &spad, const FwConfig &cfg);

    Scratchpad &spad;
    FwConfig config;

    /// @name Scratchpad layout (addresses used by the op streams)
    /// @{
    Addr counterBase = 0;     //!< block of shadow counter words
    Addr txFlagBase = 0;      //!< TX status bit array (real bits)
    Addr rxFlagBase = 0;
    Addr sendBdCache = 0;     //!< fetched send BDs (real bytes)
    Addr recvBdCache = 0;
    Addr rxHwDescBase = 0;    //!< MAC-RX hardware descriptors (2 words)
    Addr rxComplBase = 0;     //!< RX completion descriptors (4 words)
    Addr txCmdRingBase = 0;   //!< DMA-cmd -> frame-seq map (1 word)
    Addr rxCmdRingBase = 0;
    Addr txInfoBase = 0;      //!< per-frame metadata blocks
    Addr rxInfoBase = 0;
    Addr txEventBase = 0;     //!< per-frame event structures
    Addr rxEventBase = 0;
    Addr lockBase = 0;        //!< one word per FwLock
    /// @}

    /** Bytes per per-frame metadata block (frame descriptor, DMA
     *  descriptors, offload context, statistics).  Sized so the whole
     *  metadata working set is on the order of 100 KB, matching the
     *  paper's characterization. */
    static constexpr unsigned infoBytes = 512;
    /** Bytes per per-frame event structure (a section of the block). */
    static constexpr unsigned eventBytes = 32;

    /**
     * End of the register/lock region.  Scratchpad words below this
     * address are mailboxes, hardware progress registers and locks;
     * the coherence study (like the paper's) filters the traces to
     * frame metadata only, i.e. addresses at or above this boundary.
     */
    Addr metadataStart = 0;

    /** Address of the i-th shadow counter word. */
    Addr counterAddr(unsigned i) const { return counterBase + 4 * i; }

    /** Flag-word address for frame @p seq in a flag ring. */
    Addr
    flagWordAddr(Addr base, std::uint64_t seq) const
    {
        std::uint64_t bit = seq % flagBits;
        return base + 4 * (bit / 32);
    }

    unsigned flagBit(std::uint64_t seq) const { return seq % flagBits; }

    /// @name Monotonic pipeline counters -- transmit path
    /// @{
    std::uint64_t hostPostedBds = 0;     //!< mailbox (2 per frame)
    std::uint64_t txBdFetchIssuedBds = 0;
    std::uint64_t txBdArrivedBds = 0;    //!< hw: fetch DMA completed
    std::uint64_t txClaimedFrames = 0;
    std::uint64_t txCmdsPushed = 0;      //!< payload DMA commands
    std::uint64_t txCmdsCompleted = 0;   //!< hw progress
    std::uint64_t txDmaProcessed = 0;    //!< cmds turned into flag sets
    std::uint64_t txOrderedReady = 0;    //!< flags scanned/cleared up to
    std::uint64_t txMacEnqueued = 0;     //!< handed to the MAC (in order)
    std::uint64_t macTxDone = 0;         //!< hw progress
    std::uint64_t txComplProcessed = 0;
    std::uint64_t txFreedFrames = 0;     //!< slots released
    std::uint64_t txConsumedReported = 0;
    /// @}

    /// @name Monotonic pipeline counters -- receive path
    /// @{
    std::uint64_t hostRecvBdsPosted = 0;
    std::uint64_t rxBdFetchIssuedBds = 0;
    std::uint64_t rxBdArrivedBds = 0;
    std::uint64_t rxBdConsumedBds = 0;
    std::uint64_t macRxAllocated = 0;    //!< slots handed to MAC RX
    std::uint64_t macRxStored = 0;       //!< hw: frames in SDRAM
    std::uint64_t rxClaimedFrames = 0;
    std::uint64_t rxCmdsPushed = 0;
    std::uint64_t rxCmdsCompleted = 0;   //!< hw progress
    std::uint64_t rxDmaProcessed = 0;
    std::uint64_t rxOrderedReady = 0;    //!< flags scanned/cleared up to
    std::uint64_t rxCommitted = 0;       //!< delivered to host (in order)
    std::uint64_t rxSlotsFreed = 0;
    /// @}

    /// @name Reservation accounting for hardware FIFO space
    /// @{
    unsigned dmaReadReserved = 0;
    unsigned dmaWriteReserved = 0;
    unsigned macTxReserved = 0;
    /// @}

    /// @name Locks (functional state; scratchpad words are shadows)
    /// @{
    bool lockHeld[numFwLocks] = {};
    std::uint64_t lockAcquires[numFwLocks] = {};
    std::uint64_t lockSpins[numFwLocks] = {};

    Addr
    lockAddr(FwLock l) const
    {
        return lockBase + 4 * static_cast<unsigned>(l);
    }
    /// @}

    /// @name Commit-role claims (single committer per direction)
    /// @{
    bool txCommitBusy = false;
    bool rxCommitBusy = false;
    /// @}

    /// @name Per-task invocation counters (diagnostics)
    /// @{
    std::uint64_t invFetchSendBd = 0;
    std::uint64_t invSendFrame = 0;
    std::uint64_t invProcessTxDma = 0;
    std::uint64_t invTxCommitPasses = 0;
    std::uint64_t invTxCommitted = 0;
    std::uint64_t invProcessTxComplete = 0;
    std::uint64_t invFetchRecvBd = 0;
    std::uint64_t invRecvFrame = 0;
    std::uint64_t invProcessRxDma = 0;
    std::uint64_t invRxCommitPasses = 0;
    std::uint64_t invRxCommitted = 0;
    /// @}

    /** DMA-command ring mirrors: command index -> frame sequence. */
    std::vector<std::uint64_t> txCmdSeq;
    std::vector<std::uint64_t> rxCmdSeq;

    /** Per-frame mirrors (ring by seq % txSlots / rxSlots). */
    struct TxFrameInfo
    {
        std::uint64_t hostHdrAddr;
        std::uint64_t hostPayAddr;
        std::uint32_t hdrLen;
        std::uint32_t payLen;
    };
    struct RxFrameInfo
    {
        std::uint64_t hostBufAddr;
        std::uint64_t sdramAddr;
        std::uint32_t len;
    };
    std::vector<TxFrameInfo> txInfo;
    std::vector<RxFrameInfo> rxInfo;

    /** Per-slot poison marks (ring by seq % txSlots): set when fault
     *  injection poisoned the frame or its payload DMA was abandoned;
     *  the commit step retires such frames without transmitting.
     *  Rewritten at every slot claim, so entries never go stale.
     *  All-zero (and never read) on fault-free runs. */
    std::vector<std::uint8_t> txPoison;

    /** One-line-per-stage pipeline snapshot for watchdog/liveness
     *  diagnostics. */
    std::string pipelineReport() const;

    /** Size of each status-flag ring in bits. */
    unsigned flagBits = 0;

    /// @name Derived occupancy helpers
    /// @{
    std::uint64_t
    txBdArrivedFrames() const
    {
        // Each descriptor pair covers tsoSegments frames.
        return txBdArrivedBds / 2 * config.tsoSegments;
    }

    unsigned
    rxBdAvail() const
    {
        return static_cast<unsigned>(rxBdArrivedBds - rxBdConsumedBds);
    }

    bool
    txSlotAvailable(std::uint64_t seq) const
    {
        return seq - txFreedFrames < config.txSlots;
    }
    /// @}

    /// @name Addresses of specific shadow counters (poll targets)
    /// @{
    enum CounterIdx : unsigned
    {
        CtrHostPostedBds,
        CtrTxBdArrived,
        CtrTxCmdsCompleted,
        CtrMacTxDone,
        CtrHostRecvBds,
        CtrRxBdArrived,
        CtrMacRxStored,
        CtrRxCmdsCompleted,
        CtrTxClaimed,
        CtrTxDmaProcessed,
        CtrTxMacEnqueued,
        CtrTxComplProcessed,
        CtrRxClaimed,
        CtrRxDmaProcessed,
        CtrRxCommitted,
        CtrRxBdConsumed,
        NumCounters
    };
    /// @}
};

} // namespace tengig

#endif // TENGIG_FIRMWARE_FW_STATE_HH
