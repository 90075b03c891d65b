/**
 * @file
 * Unit tests for the DMA assist engines: data movement correctness,
 * FIFO ordering, backpressure, and timing interaction with the
 * scratchpad and SDRAM.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "assist/dma_assist.hh"

using namespace tengig;

namespace {

struct DmaFixture : public ::testing::Test
{
    DmaFixture()
        : cpu("cpu", 5000), bus("membus", 2000),
          spad(eq, cpu, 8, 64 * 1024, 4),
          ram(eq, bus),
          host(1024 * 1024),
          assist(eq, cpu, spad, ram, host, /*spad_req=*/6,
                 /*sdram_req=*/0, /*fifo=*/4)
    {}

    EventQueue eq;
    ClockDomain cpu, bus;
    Scratchpad spad;
    GddrSdram ram;
    HostMemory host;
    DmaAssist assist;
};

} // namespace

TEST_F(DmaFixture, HostToSdramMovesBytes)
{
    std::vector<std::uint8_t> payload(1472);
    std::iota(payload.begin(), payload.end(), 1);
    host.write(0x1000, payload.data(), payload.size());

    bool done = false;
    eq.schedule(0, [&] {
        assist.push(DmaCommand{DmaCommand::Kind::HostToSdram, 0x1000,
                               0x8000, payload.size(), 0,
                               [&] { done = true; }});
    });
    eq.run();
    EXPECT_TRUE(done);
    std::vector<std::uint8_t> out(payload.size());
    ram.readBytes(0x8000, out.data(), out.size());
    EXPECT_EQ(out, payload);
    EXPECT_EQ(assist.bytesMoved(), payload.size());
}

TEST_F(DmaFixture, SdramToHostMovesBytes)
{
    std::vector<std::uint8_t> payload(600, 0xa5);
    ram.writeBytes(0x2000, payload.data(), payload.size());
    eq.schedule(0, [&] {
        assist.push(DmaCommand{DmaCommand::Kind::SdramToHost, 0x4000,
                               0x2000, payload.size(), 0, nullptr});
    });
    eq.run();
    std::vector<std::uint8_t> out(payload.size());
    host.read(0x4000, out.data(), out.size());
    EXPECT_EQ(out, payload);
}

TEST_F(DmaFixture, HostToSpadWritesDescriptors)
{
    // A batch of 4 descriptors of 16 bytes.
    std::vector<std::uint32_t> bds(16);
    std::iota(bds.begin(), bds.end(), 100);
    host.write(0x3000, bds.data(), 64);
    eq.schedule(0, [&] {
        assist.push(DmaCommand{DmaCommand::Kind::HostToSpad, 0x3000,
                               0x400, 64, 0, nullptr});
    });
    eq.run();
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(spad.storage().loadWord(0x400 + 4 * i), 100u + i);
    // One crossbar write per 32-bit word.
    EXPECT_EQ(spad.writeAccesses(), 16u);
}

TEST_F(DmaFixture, SpadToHostReadsDescriptors)
{
    spad.storage().storeWord(0x500, 0xcafef00d);
    eq.schedule(0, [&] {
        assist.push(DmaCommand{DmaCommand::Kind::SpadToHost, 0x6000,
                               0x500, 4, 0, nullptr});
    });
    eq.run();
    std::uint32_t v = 0;
    host.read(0x6000, &v, 4);
    EXPECT_EQ(v, 0xcafef00du);
}

TEST_F(DmaFixture, CommandsCompleteInFifoOrder)
{
    std::vector<int> order;
    eq.schedule(0, [&] {
        // A long SDRAM transfer first, short scratchpad one second:
        // strict FIFO means the short one still finishes second.
        assist.push(DmaCommand{DmaCommand::Kind::HostToSdram, 0x1000,
                               0x8000, 1518, 0,
                               [&] { order.push_back(1); }});
        assist.push(DmaCommand{DmaCommand::Kind::SpadToHost, 0x6000,
                               0x500, 4, 0, [&] { order.push_back(2); }});
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(DmaFixture, FifoBackpressure)
{
    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i) {
            EXPECT_TRUE(assist.push(DmaCommand{
                DmaCommand::Kind::HostToSdram, 0x1000,
                static_cast<Addr>(0x8000 + 2048 * i), 1518, 0, nullptr}));
        }
        EXPECT_TRUE(assist.full());
        // Rejected pushes are counted: push()'s contract says the
        // firmware must retry, and an uncounted reject would make a
        // never-retried command invisible in the stat tree.
        EXPECT_EQ(assist.fifoFullRejects(), 0u);
        EXPECT_FALSE(assist.push(DmaCommand{
            DmaCommand::Kind::HostToSdram, 0x1000, 0x8000, 64, 0,
            nullptr}));
        EXPECT_EQ(assist.fifoFullRejects(), 1u);
    });
    eq.run();
    EXPECT_EQ(assist.commandsCompleted(), 4u);
    // Draining the FIFO makes room again; no further rejects.
    eq.schedule(eq.curTick() + 1, [&] {
        EXPECT_TRUE(assist.push(DmaCommand{
            DmaCommand::Kind::HostToSdram, 0x1000, 0x8000, 64, 0,
            nullptr}));
    });
    eq.run();
    EXPECT_EQ(assist.fifoFullRejects(), 1u);
    EXPECT_EQ(assist.commandsCompleted(), 5u);
}

TEST_F(DmaFixture, SpadTransferMovesOneWordPerCycle)
{
    Tick start = 0, end = 0;
    eq.schedule(0, [&] {
        start = eq.curTick();
        assist.push(DmaCommand{DmaCommand::Kind::HostToSpad, 0x3000,
                               0x400, 64, 0, [&] { end = eq.curTick(); }});
    });
    eq.run();
    // 16 words at >= 1 cycle each (accept latency pipelines to
    // one word per cycle): at least 16 cycles, well under 64.
    EXPECT_GE(end - start, 16 * 5000u);
    EXPECT_LE(end - start, 64 * 5000u);
}

TEST_F(DmaFixture, HeaderThenPayloadMoveTheFrameAsADescriptor)
{
    // The TX shape, posted as the firmware posts it: a completion-less
    // header command, then the SDRAM-contiguous payload of the same
    // frame.  Each moves as one plain SDRAM burst.
    FrameDesc d{1, 0, 0, 1472};
    host.store().putFrame(0x1000, d);

    bool done = false;
    eq.schedule(0, [&] {
        ASSERT_TRUE(assist.push(
            DmaCommand{DmaCommand::Kind::HostToSdram, 0x1000, 0x8000,
                       txHeaderBytes, 0, nullptr}));
        ASSERT_TRUE(assist.push(
            DmaCommand{DmaCommand::Kind::HostToSdram,
                       0x1000 + txHeaderBytes, 0x8000 + txHeaderBytes,
                       1472, 1472, [&] { done = true; }}));
    });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(ram.burstCount(), 2u);
    EXPECT_EQ(assist.commandsCompleted(), 2u);
    EXPECT_EQ(assist.headerBytesMoved(), txHeaderBytes);
    EXPECT_EQ(assist.payloadBytesMoved(), 1472u);

    // The frame moved as a descriptor: still virtual on both sides.
    auto v = ram.viewFrame(0x8000, d.totalLen());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, d);
    EXPECT_EQ(ram.store().materializations(), 0u);
    EXPECT_EQ(host.store().materializations(), 0u);
}

TEST_F(DmaFixture, PayloadBurstStartsOnTheHeaderCompletionEdge)
{
    // The engine issues the payload's burst from the header's
    // completion, so the frame holds the bus back to back.  Header:
    // 42 B at 0x8000 is 48 wire bytes, 3 beats + 1, plus the row
    // activation.  Payload: 1472 B at 0x802a is 1480 wire bytes, 93
    // beats + 1, in the row the header opened.
    Tick hdr_done = 0, pay_done = 0;
    eq.schedule(0, [&] {
        assist.push(DmaCommand{DmaCommand::Kind::HostToSdram, 0x1000,
                               0x8000, txHeaderBytes, 0,
                               [&] { hdr_done = eq.curTick(); }});
        assist.push(DmaCommand{DmaCommand::Kind::HostToSdram,
                               0x1000 + txHeaderBytes,
                               0x8000 + txHeaderBytes, 1472, 1472,
                               [&] { pay_done = eq.curTick(); }});
    });
    eq.run();
    EXPECT_EQ(hdr_done, (9 + 3 + 1) * 2000u);
    EXPECT_EQ(pay_done, hdr_done + (93 + 1) * 2000u);
    EXPECT_EQ(ram.busyTickCount(), pay_done);
    EXPECT_EQ(ram.rowActivations(), 1u);
}
