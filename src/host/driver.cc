#include "driver.hh"

#include "sim/logging.hh"

namespace tengig {

DeviceDriver::DeviceDriver(HostMemory &host_, const Config &cfg)
    : host(host_), config(cfg)
{
    fatal_if(cfg.tsoSegments == 0 || cfg.tsoSegments > 255,
             "tsoSegments must be in [1, 255]");
    fatal_if(!cfg.txFrameNext, "the driver needs a tx source (txFrameNext)");
    fatal_if(cfg.sendRingFrames % cfg.tsoSegments != 0,
             "send ring must hold whole TSO groups");

    // Two BDs per send group (a group is one frame, or tsoSegments
    // frames sliced from one large buffer).
    unsigned groups = cfg.sendRingFrames / cfg.tsoSegments;
    sendRingBds = groups * 2;
    sendRing = host.alloc(static_cast<std::size_t>(sendRingBds) *
                          BufferDesc::bytes, 64);
    // One reusable header-template + payload buffer per ring group.
    std::size_t tx_buf_bytes = txHeaderBytes +
        static_cast<std::size_t>(udpMaxPayloadBytes) * cfg.tsoSegments;
    txBufBase = host.alloc(static_cast<std::size_t>(groups) *
                           tx_buf_bytes, 64);

    recvRingBds = cfg.recvPoolBuffers;
    recvRing = host.alloc(static_cast<std::size_t>(recvRingBds) *
                          BufferDesc::bytes, 64);
    recvReturnRing = host.alloc(static_cast<std::size_t>(recvRingBds) *
                                BufferDesc::bytes, 64);
    txConsumedAddr = host.alloc(8, 8);
    rxBufBase = host.alloc(static_cast<std::size_t>(cfg.recvPoolBuffers) *
                           ethMaxFrameBytes, 64);
    txPostedMeta.assign(cfg.sendRingFrames, {0, 0});
}

bool
DeviceDriver::postOneSendFrame()
{
    // Posts one send *group*: tsoSegments frames behind a single
    // header-template/payload descriptor pair.
    unsigned segs = config.tsoSegments;
    std::uint64_t seq = txPosted;
    std::uint64_t group = seq / segs;
    unsigned groups = config.sendRingFrames / segs;
    unsigned slot = static_cast<unsigned>(group % groups);
    std::size_t buf_bytes = txHeaderBytes +
        static_cast<std::size_t>(udpMaxPayloadBytes) * segs;
    Addr buf = txBufBase + static_cast<Addr>(slot) * buf_bytes;

    // Header template + per-segment payloads, posted as pattern spans
    // rather than filled bytes: the contents are a pure function of
    // (seq, flow, length), so the buffer carries 16-byte descriptors
    // and the bytes never exist unless something downstream reads the
    // frame non-uniformly.  The workload source picks each frame's
    // flow and size, and the frame carries its flow's own sequence
    // number.  The header span (filler seeded by the global posting
    // sequence) merges with segment 0's payload span into one
    // whole-frame span; later TSO segments stay payload-only spans the
    // NIC's header replication completes.
    auto hdr_seed = static_cast<std::uint32_t>(seq);
    unsigned payload = 0;
    for (unsigned s = 0; s < segs; ++s) {
        // The source may decline the group's first frame, before any
        // state changes, so a refusal leaves the ring untouched.
        auto next = config.txFrameNext(seq + s);
        if (!next) {
            panic_if(s > 0, "tx source declined segment ", s,
                     " of a TSO group");
            return false;
        }
        auto [flow, bytes] = *next;
        fatal_if(bytes < 18 || bytes > udpMaxPayloadBytes,
                 "tx payload must be in [18, 1472], got ", bytes);
        fatal_if(s > 0 && bytes != payload, "a TSO group needs one "
                 "payload size, got ", bytes, " after ", payload);
        payload = bytes;
        std::uint32_t fseq = txFlowSeq[flow]++;
        FrameDesc desc{hdr_seed, fseq, flow, payload};
        if (s == 0)
            host.store().putSpan(buf, {desc, 0, txHeaderBytes});
        host.store().putSpan(
            buf + txHeaderBytes + static_cast<Addr>(s) * payload,
            {desc, txHeaderBytes, payload});
        txPostedMeta[(seq + s) % config.sendRingFrames] = {flow, fseq};
    }

    std::uint32_t flags = BufferDesc::flagLast;
    if (segs > 1)
        flags |= BufferDesc::flagTso |
            (segs << BufferDesc::segmentShift);
    BufferDesc bd0{buf, txHeaderBytes, BufferDesc::flagFirst};
    BufferDesc bd1{buf + txHeaderBytes,
                   payload * segs, flags};
    Addr ring_at = sendRing +
        static_cast<Addr>((group * 2) % sendRingBds) *
        BufferDesc::bytes;
    host.write(ring_at, &bd0, sizeof(bd0));
    host.write(ring_at + BufferDesc::bytes, &bd1, sizeof(bd1));
    txPosted += segs;
    return true;
}

void
DeviceDriver::startSend(std::uint64_t frames)
{
    fatal_if(frames != unlimitedFrames && frames % config.tsoSegments != 0,
             "send budget must be whole TSO groups, got ", frames);
    txBudget = frames;
    resumeSend();
}

void
DeviceDriver::txConsumedUpTo(std::uint64_t frames)
{
    // Consumed-index writebacks from concurrently executing firmware
    // handlers can land out of order; stale updates are ignored, as in
    // a real driver.
    if (frames <= txConsumed)
        return;
    panic_if(frames > txPosted, "NIC consumed frames never posted");
    txConsumed = frames;
    resumeSend();
}

void
DeviceDriver::resumeSend()
{
    // Whole groups only (a finite budget is whole groups too), each
    // one fitting the ring; a declined frame stops posting until the
    // next resumeSend().
    unsigned segs = config.tsoSegments;
    std::uint64_t before = txPosted;
    while (txPosted < txBudget &&
           txPosted - txConsumed + segs <= config.sendRingFrames &&
           postOneSendFrame()) {
    }
    if (sendDoorbell && txPosted > before)
        sendDoorbell(txPosted / segs * 2);
}

void
DeviceDriver::primeReceivePool()
{
    postRecvBds(config.recvPoolBuffers);
}

void
DeviceDriver::postRecvBds(unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        std::uint64_t idx = rxBdsPosted;
        unsigned slot = static_cast<unsigned>(idx %
                                              config.recvPoolBuffers);
        Addr buf = rxBufBase +
            static_cast<Addr>(slot) * ethMaxFrameBytes;
        BufferDesc bd{buf, ethMaxFrameBytes, 0};
        Addr ring_at = recvRing +
            static_cast<Addr>(idx % recvRingBds) * BufferDesc::bytes;
        host.write(ring_at, &bd, sizeof(bd));
        ++rxBdsPosted;
    }
    if (recvDoorbell && n > 0)
        recvDoorbell(rxBdsPosted);
}

void
DeviceDriver::rxCompletion(Addr host_buf, std::uint32_t len)
{
    if (len == 0) {
        // The NIC zeroed the completion length: the frame's content
        // DMA was abandoned under fault injection and the buffer holds
        // stale bytes.  Recycle it without delivering anything.
        ++rxFaultDrops;
        ++rxBuffersReturned;
        std::uint64_t outstanding = rxBdsPosted - rxBuffersReturned;
        if (outstanding + config.recvPostBatch <= config.recvPoolBuffers)
            postRecvBds(config.recvPostBatch);
        return;
    }
    ++rxDelivered;
    // Descriptor fast path: a clean frame lands as one whole-frame
    // span and validates in O(1).  Corrupted or previously
    // materialized frames miss and fall back to real bytes.
    std::optional<FrameDesc> desc = host.store().viewFrame(host_buf, len);
    FrameView v;
    v.len = len;
    if (desc)
        v.desc = &*desc;
    else
        v.bytes = host.bytesFor(host_buf, len);
    if (rxDeliver)
        rxDeliver(v);

    // Replenish the pool in batches once enough buffers are returned.
    ++rxBuffersReturned;
    std::uint64_t outstanding = rxBdsPosted - rxBuffersReturned;
    if (outstanding + config.recvPostBatch <= config.recvPoolBuffers)
        postRecvBds(config.recvPostBatch);
}

} // namespace tengig
