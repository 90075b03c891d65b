#include "trace_capture.hh"

namespace tengig {
namespace coherence {

Trace
captureControlTrace(NicController &nic, Tick warmup, Tick duration,
                    std::size_t max_records)
{
    Trace trace;
    trace.reserve(std::min<std::size_t>(max_records, 1u << 20));

    unsigned cores = nic.config().cores;
    Addr metadata_start = nic.firmwareState().metadataStart;
    const EventQueue &eq = nic.eventQueue();
    nic.scratchpad().setTracer(
        [&trace, cores, max_records, &eq, warmup,
         metadata_start](unsigned requester, Addr addr, bool write) {
            // Record the measured window only: run() opens it once
            // every event at the warmup tick has fired.
            if (eq.curTick() <= warmup || trace.size() >= max_records)
                return;
            // Filter to frame metadata, as the paper did: mailboxes,
            // hardware progress registers and lock words are not
            // cacheable data.
            if (addr < metadata_start)
                return;
            // Cores map 1:1; the two DMA assists interleave into one
            // stream and the two MAC assists into another (the paper's
            // workaround for SMPCache's 8-cache limit).
            std::uint8_t cache;
            if (requester < cores)
                cache = static_cast<std::uint8_t>(requester);
            else if (requester < cores + 2)
                cache = static_cast<std::uint8_t>(cores);     // DMA pair
            else
                cache = static_cast<std::uint8_t>(cores + 1); // MAC pair
            trace.push_back(AccessRecord{cache, write, addr});
        });

    nic.run(warmup, duration);
    nic.scratchpad().setTracer(nullptr);
    return trace;
}

} // namespace coherence
} // namespace tengig
