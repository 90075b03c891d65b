#include "fw_state.hh"

#include <algorithm>

namespace tengig {

FwState::FwState(Scratchpad &spad_, const FwConfig &cfg)
    : spad(spad_), config(cfg)
{
    // The flag rings must cover every in-flight frame; slots bound the
    // in-flight window, so flagBits = 2 * slots is always safe.
    flagBits = 2 * std::max(cfg.txSlots, cfg.rxSlots);

    auto &st = spad.storage();
    counterBase = st.alloc(4 * NumCounters, 64);
    lockBase = st.alloc(4 * numFwLocks, 64);
    metadataStart = st.allocated();
    txFlagBase = st.alloc(flagBits / 8, 64);
    rxFlagBase = st.alloc(flagBits / 8, 64);
    sendBdCache = st.alloc(16 * cfg.bdCacheBds, 64);
    recvBdCache = st.alloc(16 * cfg.bdCacheBds, 64);
    rxHwDescBase = st.alloc(8 * cfg.rxSlots, 64);
    rxComplBase = st.alloc(16 * cfg.rxSlots, 64);
    txCmdRingBase = st.alloc(4 * cfg.txSlots, 64);
    rxCmdRingBase = st.alloc(4 * cfg.rxSlots, 64);
    txInfoBase = st.alloc(infoBytes * cfg.txSlots, 64);
    rxInfoBase = st.alloc(infoBytes * cfg.rxSlots, 64);
    // Event structures live in a dedicated section (last eventBytes)
    // of each frame's metadata block: stage handoffs between cores
    // touch the same lines the building core wrote.
    txEventBase = txInfoBase + infoBytes - eventBytes;
    rxEventBase = rxInfoBase + infoBytes - eventBytes;

    txCmdSeq.assign(cfg.txSlots, 0);
    rxCmdSeq.assign(cfg.rxSlots, 0);
    txInfo.assign(cfg.txSlots, TxFrameInfo{});
    rxInfo.assign(cfg.rxSlots, RxFrameInfo{});
    txPoison.assign(cfg.txSlots, 0);
}

std::string
FwState::pipelineReport() const
{
    auto line = [](const char *name, std::uint64_t v) {
        return std::string("  ") + name + " = " + std::to_string(v) +
               "\n";
    };
    std::string r = "firmware pipeline state:\n";
    r += line("hostPostedBds", hostPostedBds);
    r += line("txBdFetchIssuedBds", txBdFetchIssuedBds);
    r += line("txBdArrivedBds", txBdArrivedBds);
    r += line("txClaimedFrames", txClaimedFrames);
    r += line("txCmdsPushed", txCmdsPushed);
    r += line("txCmdsCompleted", txCmdsCompleted);
    r += line("txDmaProcessed", txDmaProcessed);
    r += line("txOrderedReady", txOrderedReady);
    r += line("txMacEnqueued", txMacEnqueued);
    r += line("macTxDone", macTxDone);
    r += line("txComplProcessed", txComplProcessed);
    r += line("txFreedFrames", txFreedFrames);
    r += line("txConsumedReported", txConsumedReported);
    r += line("hostRecvBdsPosted", hostRecvBdsPosted);
    r += line("rxBdFetchIssuedBds", rxBdFetchIssuedBds);
    r += line("rxBdArrivedBds", rxBdArrivedBds);
    r += line("rxBdConsumedBds", rxBdConsumedBds);
    r += line("macRxAllocated", macRxAllocated);
    r += line("macRxStored", macRxStored);
    r += line("rxClaimedFrames", rxClaimedFrames);
    r += line("rxCmdsPushed", rxCmdsPushed);
    r += line("rxCmdsCompleted", rxCmdsCompleted);
    r += line("rxDmaProcessed", rxDmaProcessed);
    r += line("rxOrderedReady", rxOrderedReady);
    r += line("rxCommitted", rxCommitted);
    r += line("rxSlotsFreed", rxSlotsFreed);
    r += line("dmaReadReserved", dmaReadReserved);
    r += line("dmaWriteReserved", dmaWriteReserved);
    r += line("macTxReserved", macTxReserved);
    return r;
}

} // namespace tengig
