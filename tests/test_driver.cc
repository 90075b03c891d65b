/**
 * @file
 * Unit tests for the host device-driver model: descriptor rings,
 * doorbells, replenishment, completion delivery into a validator.
 */

#include <gtest/gtest.h>

#include "host/driver.hh"
#include "traffic/flow_sink.hh"

using namespace tengig;

namespace {

/** A transmit source of flow-0 frames of @p bytes each. */
auto
fixedSpec(unsigned bytes)
{
    return [bytes](std::uint64_t) {
        return std::optional<std::pair<std::uint32_t, unsigned>>{
            {0, bytes}};
    };
}

struct DriverFixture : public ::testing::Test
{
    DriverFixture() : host(16 * 1024 * 1024)
    {
        cfg.sendRingFrames = 8;
        cfg.recvPoolBuffers = 16;
        cfg.recvPostBatch = 4;
        cfg.txFrameNext = fixedSpec(256);
    }

    /** The NIC writes a valid frame of @p seq into receive-ring slot
     *  @p slot and completes it. */
    void completeFrame(DeviceDriver &drv, unsigned slot, std::uint32_t seq,
                       unsigned payload);

    HostMemory host;
    DeviceDriver::Config cfg;
};

BufferDesc
readBd(HostMemory &host, Addr ring, unsigned idx)
{
    BufferDesc bd;
    host.read(ring + idx * BufferDesc::bytes, &bd, sizeof(bd));
    return bd;
}

void
DriverFixture::completeFrame(DeviceDriver &drv, unsigned slot,
                             std::uint32_t seq, unsigned payload)
{
    BufferDesc bd = readBd(host, drv.recvBdRingBase(), slot);
    std::vector<std::uint8_t> frame(txHeaderBytes + payload);
    fillPayload(frame.data() + txHeaderBytes, payload, seq);
    host.write(bd.hostAddr, frame.data(), frame.size());
    drv.rxCompletion(bd.hostAddr, static_cast<std::uint32_t>(frame.size()));
}

} // namespace

TEST_F(DriverFixture, PostSendFramesWritesTwoBdsPerFrame)
{
    DeviceDriver drv(host, cfg);
    std::uint64_t doorbell = 0;
    drv.onSendDoorbell([&](std::uint64_t bds) { doorbell = bds; });
    drv.startSend(3);
    EXPECT_EQ(drv.txFramesPosted(), 3u);
    EXPECT_EQ(doorbell, 6u);

    for (unsigned f = 0; f < 3; ++f) {
        BufferDesc hdr = readBd(host, drv.sendBdRingBase(), 2 * f);
        BufferDesc pay = readBd(host, drv.sendBdRingBase(), 2 * f + 1);
        EXPECT_EQ(hdr.len, txHeaderBytes);
        EXPECT_TRUE(hdr.flags & BufferDesc::flagFirst);
        EXPECT_EQ(pay.len, 256u);
        EXPECT_TRUE(pay.flags & BufferDesc::flagLast);
        EXPECT_EQ(pay.hostAddr, hdr.hostAddr + txHeaderBytes);

        // Payload is validatable and carries the frame sequence
        // (bytesFor materializes the posted pattern span).
        std::uint32_t seq = 0;
        EXPECT_TRUE(checkPayload(host.bytesFor(pay.hostAddr, pay.len),
                                 pay.len, seq));
        EXPECT_EQ(seq, f);
    }
}

TEST_F(DriverFixture, UnlimitedSendRefillsOnConsumption)
{
    DeviceDriver drv(host, cfg);
    drv.startSend();
    EXPECT_EQ(drv.txFramesPosted(), 8u);
    drv.txConsumedUpTo(5);
    EXPECT_EQ(drv.txFramesConsumed(), 5u);
    EXPECT_EQ(drv.txFramesPosted(), 13u); // refilled to ring capacity
}

TEST_F(DriverFixture, SendBudgetPostsExactlyItsFramesAcrossRefills)
{
    DeviceDriver drv(host, cfg);
    std::uint64_t doorbell = 0;
    drv.onSendDoorbell([&](std::uint64_t bds) { doorbell = bds; });
    drv.startSend(20); // more than the 8-frame ring holds
    EXPECT_EQ(drv.txFramesPosted(), 8u);
    drv.txConsumedUpTo(6);
    EXPECT_EQ(drv.txFramesPosted(), 14u);
    drv.txConsumedUpTo(14);
    EXPECT_EQ(drv.txFramesPosted(), 20u);
    drv.txConsumedUpTo(20);
    drv.resumeSend();
    EXPECT_EQ(drv.txFramesPosted(), 20u);
    EXPECT_EQ(doorbell, 40u);
}

TEST_F(DriverFixture, StopSendCapsTheBudgetAtThePostedFrames)
{
    DeviceDriver drv(host, cfg);
    drv.startSend();
    drv.txConsumedUpTo(3);
    EXPECT_EQ(drv.txFramesPosted(), 11u);
    drv.stopSend();
    drv.txConsumedUpTo(11);
    EXPECT_EQ(drv.txFramesPosted(), 11u);
}

TEST_F(DriverFixture, StaleConsumptionUpdatesIgnored)
{
    DeviceDriver drv(host, cfg);
    drv.startSend(6);
    drv.txConsumedUpTo(4);
    drv.txConsumedUpTo(2); // stale writeback, must be ignored
    EXPECT_EQ(drv.txFramesConsumed(), 4u);
    EXPECT_THROW(drv.txConsumedUpTo(7), PanicError); // never posted
}

TEST_F(DriverFixture, PrimeReceivePoolPostsAllBuffers)
{
    DeviceDriver drv(host, cfg);
    std::uint64_t doorbell = 0;
    drv.onRecvDoorbell([&](std::uint64_t bds) { doorbell = bds; });
    drv.primeReceivePool();
    EXPECT_EQ(drv.recvBdsPosted(), 16u);
    EXPECT_EQ(doorbell, 16u);
    BufferDesc bd = readBd(host, drv.recvBdRingBase(), 0);
    EXPECT_EQ(bd.len, ethMaxFrameBytes);
    EXPECT_NE(bd.hostAddr, 0u);
}

TEST_F(DriverFixture, RxCompletionValidatesAndReplenishes)
{
    DeviceDriver drv(host, cfg);
    FlowSink sink(/*lossless=*/false);
    drv.onRxDeliver([&](const FrameView &v) { sink.deliver(v); });
    std::uint64_t doorbell = 0;
    drv.onRecvDoorbell([&](std::uint64_t bds) { doorbell = bds; });
    drv.primeReceivePool();

    for (std::uint32_t s = 0; s < 4; ++s)
        completeFrame(drv, s, s, 300);
    EXPECT_EQ(drv.rxFramesDelivered(), 4u);
    EXPECT_EQ(sink.framesReceived(), 4u);
    EXPECT_EQ(sink.errors(), 0u);
    EXPECT_EQ(sink.payloadBytesReceived(), 4u * 300u);
    // Four returned buffers make room for one batch of four.
    EXPECT_EQ(drv.recvBdsPosted(), 20u);
    EXPECT_EQ(doorbell, 20u);
}

TEST_F(DriverFixture, RxCompletionFlagsBadPayload)
{
    DeviceDriver drv(host, cfg);
    FlowSink sink(/*lossless=*/false);
    drv.onRxDeliver([&](const FrameView &v) { sink.deliver(v); });
    drv.primeReceivePool();
    BufferDesc bd = readBd(host, drv.recvBdRingBase(), 0);
    drv.rxCompletion(bd.hostAddr, 200); // garbage contents
    EXPECT_EQ(drv.rxFramesDelivered(), 1u);
    EXPECT_EQ(sink.integrityErrors(), 1u);
}

TEST_F(DriverFixture, RxGapFromDropIsNotAnOrderError)
{
    DeviceDriver drv(host, cfg);
    FlowSink sink(/*lossless=*/false);
    drv.onRxDeliver([&](const FrameView &v) { sink.deliver(v); });
    drv.primeReceivePool();
    completeFrame(drv, 0, 0, 64);
    completeFrame(drv, 1, 2, 64); // gap (frame 1 dropped upstream)
    EXPECT_EQ(sink.gapErrors(), 1u);
    EXPECT_EQ(sink.errors(), 0u);
    completeFrame(drv, 2, 1, 64); // regression: must be flagged
    EXPECT_EQ(sink.duplicateErrors(), 1u);
    EXPECT_EQ(sink.errors(), 1u);
}

TEST_F(DriverFixture, InvalidPayloadSizeIsFatal)
{
    cfg.txFrameNext = fixedSpec(4);
    EXPECT_THROW(DeviceDriver(host, cfg).startSend(1), FatalError);
    cfg.txFrameNext = fixedSpec(5000);
    EXPECT_THROW(DeviceDriver(host, cfg).startSend(1), FatalError);
}

TEST_F(DriverFixture, TsoPostsOnePairPerGroup)
{
    cfg.tsoSegments = 4;
    cfg.txFrameNext = fixedSpec(1000);
    DeviceDriver drv(host, cfg);
    std::uint64_t doorbell = 0;
    drv.onSendDoorbell([&](std::uint64_t bds) { doorbell = bds; });
    drv.startSend(8); // two groups
    EXPECT_EQ(drv.txFramesPosted(), 8u);
    EXPECT_EQ(doorbell, 4u); // 2 BDs per group

    BufferDesc pay = readBd(host, drv.sendBdRingBase(), 1);
    EXPECT_TRUE(pay.flags & BufferDesc::flagTso);
    EXPECT_EQ((pay.flags >> BufferDesc::segmentShift) & 0xff, 4u);
    EXPECT_EQ(pay.len, 4000u);

    // Every segment's payload validates with consecutive sequences.
    for (unsigned s = 0; s < 4; ++s) {
        std::uint32_t seq = 0;
        EXPECT_TRUE(checkPayload(
            host.bytesFor(pay.hostAddr + s * 1000, 1000), 1000, seq));
        EXPECT_EQ(seq, s);
    }
}

TEST_F(DriverFixture, TsoRejectsPartialGroups)
{
    cfg.tsoSegments = 4;
    DeviceDriver drv(host, cfg);
    // A budget must be whole groups; an unlimited one has no end.
    EXPECT_THROW(drv.startSend(3), FatalError);
    EXPECT_THROW(drv.startSend(10), FatalError);
    EXPECT_EQ(drv.txFramesPosted(), 0u);
    drv.startSend();
    EXPECT_EQ(drv.txFramesPosted(), 8u);
    cfg.tsoSegments = 3; // does not divide the ring
    EXPECT_THROW(DeviceDriver(host, cfg), FatalError);
}

TEST_F(DriverFixture, TsoRejectsMixedSizeGroups)
{
    // The NIC slices a group's payload buffer evenly, so one group
    // cannot mix frame sizes.
    cfg.tsoSegments = 4;
    cfg.txFrameNext = [](std::uint64_t i) {
        return std::optional<std::pair<std::uint32_t, unsigned>>{
            {0, i == 2 ? 500 : 1000}};
    };
    DeviceDriver drv(host, cfg);
    EXPECT_THROW(drv.startSend(4), FatalError);
}

TEST_F(DriverFixture, TsoSourceMayDeclineOnlyAGroupsFirstFrame)
{
    // Declining a group's first frame stops posting cleanly; declining
    // a later one would strand a half-written group.
    cfg.tsoSegments = 4;
    std::uint64_t declineAt = 4;
    cfg.txFrameNext = [&declineAt](std::uint64_t i)
        -> std::optional<std::pair<std::uint32_t, unsigned>> {
        if (i == declineAt)
            return std::nullopt;
        return std::pair<std::uint32_t, unsigned>{0, 1000};
    };
    DeviceDriver drv(host, cfg);
    drv.startSend(16);
    EXPECT_EQ(drv.txFramesPosted(), 4u);
    // The next refill asks for frame 4 again and fills the ring.
    declineAt = 100;
    drv.resumeSend();
    EXPECT_EQ(drv.txFramesPosted(), 8u);
    declineAt = 9;
    EXPECT_THROW(drv.txConsumedUpTo(4), PanicError);
}

TEST_F(DriverFixture, MissingTxSourceIsFatal)
{
    cfg.txFrameNext = nullptr;
    EXPECT_THROW(DeviceDriver(host, cfg), FatalError);
}
