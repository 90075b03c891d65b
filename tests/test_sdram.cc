/**
 * @file
 * Unit tests for the GDDR SDRAM frame-memory model.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mem/sdram.hh"

using namespace tengig;

namespace {

struct SdramFixture : public ::testing::Test
{
    SdramFixture() : bus("membus", 2000), ram(eq, bus)
    {}

    EventQueue eq;
    ClockDomain bus; // 500 MHz
    GddrSdram ram;
};

} // namespace

TEST_F(SdramFixture, StorageRoundTrip)
{
    std::vector<std::uint8_t> src(100);
    std::iota(src.begin(), src.end(), 0);
    ram.writeBytes(0x1000, src.data(), src.size());
    std::vector<std::uint8_t> dst(100, 0xff);
    ram.readBytes(0x1000, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
}

TEST_F(SdramFixture, OutOfRangePanics)
{
    std::uint8_t b = 0;
    EXPECT_THROW(ram.readBytes(ram.capacity(), &b, 1), PanicError);
    EXPECT_THROW(ram.request(0, ram.capacity() - 4, 8, false, nullptr),
                 PanicError);
    EXPECT_THROW(ram.request(99, 0, 8, false, nullptr), PanicError);
}

TEST_F(SdramFixture, AlignedBurstTiming)
{
    // 1536B aligned burst: 96 beats + 1 + one row activation (9) =
    // 106 bus cycles.
    Tick done = 0;
    eq.schedule(0, [&] {
        ram.request(0, 0, 1536, false, [&] { done = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(done, (96 + 1 + 9) * 2000u);
    EXPECT_EQ(ram.transferredBytes(), 1536u);
    EXPECT_EQ(ram.usefulBytes(), 1536u);
    EXPECT_EQ(ram.rowActivations(), 1u);
}

TEST_F(SdramFixture, MisalignedBurstConsumesFullWords)
{
    // 1518B starting at offset 3: window [0, 1528) = 1528 bytes on the
    // wire vs 1518 useful.
    eq.schedule(0, [&] { ram.request(0, 3, 1518, false, nullptr); });
    eq.run();
    EXPECT_EQ(ram.usefulBytes(), 1518u);
    EXPECT_EQ(ram.transferredBytes(), 1528u);
}

TEST_F(SdramFixture, OpenRowHitAvoidsSecondActivation)
{
    eq.schedule(0, [&] {
        ram.request(0, 0, 64, false, [&] {
            ram.request(0, 64, 64, false, nullptr); // same row
        });
    });
    eq.run();
    EXPECT_EQ(ram.rowActivations(), 1u);
}

TEST_F(SdramFixture, RowMissActivates)
{
    // Same bank, different row: rows are rowBytes*banks apart.
    const Addr stride = 2048 * 8;
    eq.schedule(0, [&] {
        ram.request(0, 0, 64, false, [&] {
            ram.request(0, stride, 64, false, nullptr);
        });
    });
    eq.run();
    EXPECT_EQ(ram.rowActivations(), 2u);
}

TEST_F(SdramFixture, BurstSpanningRowsActivatesEach)
{
    // A burst crossing a row boundary touches two banks/rows.
    eq.schedule(0, [&] { ram.request(0, 2048 - 64, 128, false, nullptr); });
    eq.run();
    EXPECT_EQ(ram.rowActivations(), 2u);
}

TEST_F(SdramFixture, BurstsAreNotPreempted)
{
    // Requester 1 issues while requester 0's long burst is in flight;
    // requester 1 finishes strictly after 0.
    Tick done0 = 0, done1 = 0;
    eq.schedule(0, [&] {
        ram.request(0, 0, 1536, false, [&] { done0 = eq.curTick(); });
        ram.request(1, 4096, 64, false, [&] { done1 = eq.curTick(); });
    });
    eq.run();
    EXPECT_GT(done0, 0u);
    EXPECT_GT(done1, done0);
}

TEST_F(SdramFixture, RoundRobinAlternatesStreams)
{
    // Two streams of equal bursts: completions must alternate.
    std::vector<unsigned> order;
    std::function<void(unsigned, int)> issue = [&](unsigned who, int n) {
        if (n == 0)
            return;
        ram.request(who, who * 1024 * 1024, 256, who == 0,
                    [&, who, n] {
                        order.push_back(who);
                        issue(who, n - 1);
                    });
    };
    eq.schedule(0, [&] {
        issue(0, 4);
        issue(1, 4);
    });
    eq.run();
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 2; i < order.size(); ++i)
        EXPECT_NE(order[i], order[i - 1])
            << "stream " << order[i] << " granted twice consecutively";
}

TEST_F(SdramFixture, ZeroLengthRequestCompletes)
{
    bool done = false;
    eq.schedule(0, [&] { ram.request(0, 0, 0, false, [&] { done = true; }); });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(ram.transferredBytes(), 0u);
}

TEST_F(SdramFixture, PeakBandwidthIs64Gbps)
{
    EXPECT_NEAR(ram.peakBandwidthGbps(), 64.0, 1e-9);
}

TEST_F(SdramFixture, SustainedStreamsApproachPeak)
{
    // Four 10 Gb/s-class streams with frame-sized bursts should sustain
    // well above 40 Gb/s consumed bandwidth, validating the paper's
    // claim that bursting makes GDDR viable for 4 streams.
    int remaining = 400;
    std::function<void(unsigned)> issue = [&](unsigned who) {
        if (remaining-- <= 0)
            return;
        ram.request(who, (who % 4) * 1024 * 1024 +
                    static_cast<Addr>((remaining / 4) % 256) * 1536,
                    1518, who % 2 == 0, [&, who] { issue(who); });
    };
    eq.schedule(0, [&] {
        for (unsigned i = 0; i < 4; ++i)
            issue(i);
    });
    eq.run();
    double gbps = ram.consumedBandwidthGbps(eq.curTick());
    EXPECT_GT(gbps, 40.0);
    EXPECT_LE(gbps, 64.0);
}

TEST_F(SdramFixture, TailIssuedAtHeadCompletionStartsOnThatEdge)
{
    // The TX shape: a 64 B header burst, then its 1472 B payload issued
    // from the header's completion callback.  The payload is granted on
    // the very bus edge the header finishes on: 92 beats + 1, no row
    // activation (the header opened the row).
    Tick done1 = 0, done2 = 0;
    eq.schedule(0, [&] {
        ram.request(0, 0, 64, true, [&] {
            done1 = eq.curTick();
            ram.request(0, 64, 1472, true, [&] { done2 = eq.curTick(); });
        });
    });
    eq.run();
    EXPECT_EQ(done1, (9 + 4 + 1) * 2000u);
    EXPECT_EQ(done2, done1 + (92 + 1) * 2000u);
    EXPECT_EQ(ram.burstCount(), 2u);
    EXPECT_EQ(ram.rowActivations(), 1u);
    EXPECT_EQ(ram.busyTickCount(), done2);
}

TEST_F(SdramFixture, BurstQueuedDuringHeadIsGrantedBeforeTheTail)
{
    // Requester 1 queues while requester 0's header occupies the bus.
    // Round robin moved past requester 0 at the header grant, so the
    // header's completion-issued tail waits for requester 1's burst,
    // which also closes the tail's row (same bank, another row).
    Tick done1 = 0, done2 = 0, done_comp = 0;
    eq.schedule(0, [&] {
        ram.request(0, 0, 64, true, [&] {
            done1 = eq.curTick();
            ram.request(0, 64, 1472, true, [&] { done2 = eq.curTick(); });
        });
    });
    eq.schedule(10000, [&] {
        ram.request(1, 4 * 1024 * 1024, 64, false,
                    [&] { done_comp = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(done_comp, done1 + (9 + 4 + 1) * 2000u);
    EXPECT_EQ(done2, done_comp + (9 + 92 + 1) * 2000u);
    EXPECT_EQ(ram.burstCount(), 3u);
    EXPECT_EQ(ram.rowActivations(), 3u);
}
