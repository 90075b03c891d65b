/**
 * @file
 * Unit tests for Ethernet/UDP frame sizing and the payload integrity
 * scheme.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "net/frame.hh"
#include "sim/logging.hh"

using namespace tengig;

TEST(FrameSizing, PayloadToFrameBytes)
{
    EXPECT_EQ(frameBytesForPayload(1472), 1518u); // max standard frame
    EXPECT_EQ(frameBytesForPayload(18), 64u);     // min frame boundary
    EXPECT_EQ(frameBytesForPayload(10), 64u);     // padded to minimum
    EXPECT_EQ(frameBytesForPayload(100), 146u);
}

TEST(FrameSizing, WireOverheads)
{
    EXPECT_EQ(wireBytesForFrame(1518), 1538u); // +8 preamble +12 IFG
    EXPECT_EQ(wireBytesForFrame(64), 84u);
    EXPECT_EQ(txHeaderBytes, 42u);
    EXPECT_EQ(framingOverheadBytes, 46u);
}

TEST(FrameSizing, LineRateMatchesPaper)
{
    // The paper: 812,744 maximum-sized frames per second per direction.
    EXPECT_NEAR(lineRateFps(1518), 812744.0, 1.0);
    // Minimum-sized frames: 14.88 M frames/s.
    EXPECT_NEAR(lineRateFps(64), 14.88e6, 0.01e6);
}

TEST(FrameSizing, WireTimeIsExact)
{
    // 1538 byte times at 0.8 ns = 1230.4 ns.
    EXPECT_EQ(wireTimeForFrame(1518), 1538u * 800u);
}

TEST(FrameSizing, UdpGoodputAtLineRate)
{
    // 1472 B payloads: 812744 f/s * 1472 B * 8 = 9.57 Gb/s.
    EXPECT_NEAR(lineRateUdpGbps(1472), 9.57, 0.01);
    // Tiny frames carry little goodput.
    EXPECT_LT(lineRateUdpGbps(18), 2.2);
}

TEST(PayloadIntegrity, RoundTrip)
{
    std::vector<std::uint8_t> buf(1472);
    fillPayload(buf.data(), 1472, 42);
    std::uint32_t seq = 0;
    EXPECT_TRUE(checkPayload(buf.data(), 1472, seq));
    EXPECT_EQ(seq, 42u);
}

TEST(PayloadIntegrity, MinimumPayload)
{
    std::vector<std::uint8_t> buf(18);
    fillPayload(buf.data(), 18, 7);
    std::uint32_t seq = 0;
    EXPECT_TRUE(checkPayload(buf.data(), 18, seq));
    EXPECT_EQ(seq, 7u);
}

TEST(PayloadIntegrity, DetectsCorruption)
{
    std::vector<std::uint8_t> buf(256);
    fillPayload(buf.data(), 256, 1);
    buf[100] ^= 0x01;
    std::uint32_t seq = 0;
    EXPECT_FALSE(checkPayload(buf.data(), 256, seq));
}

TEST(PayloadIntegrity, DetectsLengthMismatch)
{
    std::vector<std::uint8_t> buf(256);
    fillPayload(buf.data(), 256, 1);
    std::uint32_t seq = 0;
    EXPECT_FALSE(checkPayload(buf.data(), 255, seq));
}

TEST(PayloadIntegrity, DetectsHeaderCorruption)
{
    std::vector<std::uint8_t> buf(64);
    fillPayload(buf.data(), 64, 9);
    buf[12] ^= 0xff; // magic word
    std::uint32_t seq = 0;
    EXPECT_FALSE(checkPayload(buf.data(), 64, seq));
}

TEST(PayloadIntegrity, TooSmallPayloadPanics)
{
    std::vector<std::uint8_t> buf(8);
    EXPECT_THROW(fillPayload(buf.data(), 8, 0), PanicError);
    std::uint32_t seq;
    EXPECT_FALSE(checkPayload(buf.data(), 8, seq));
}

TEST(PayloadIntegrity, DistinctSequencesProduceDistinctPatterns)
{
    std::vector<std::uint8_t> a(128), b(128);
    fillPayload(a.data(), 128, 1);
    fillPayload(b.data(), 128, 2);
    EXPECT_NE(a, b);
}

TEST(PayloadIntegrity, PatternBytesArePinned)
{
    // 64-bit FNV-1a of whole fillPayload outputs.  The pattern lengths
    // (len - 16) cover empty, sub-word, odd and multiple-of-16 tails,
    // so any rewrite of the generator must keep every byte in place.
    struct Case
    {
        unsigned len;
        std::uint32_t seq;
        std::uint32_t flow;
        std::uint64_t fnv;
    };
    const Case cases[] = {
        {16, 3, 0, 0xf8c411c636590524ull},
        {18, 7, 0, 0x92b92252a7ff754aull},
        {33, 1, 2, 0xb2a911a91cb7c26dull},
        {63, 12345, 9, 0xa787735b8ab8ae9aull},
        {255, 4000000000u, 0, 0x7b1f622a4f0281a2ull},
        {1471, 99, maxFlowId, 0xa2c9045b1db81534ull},
        {1472, 42, 3, 0x6d16e73027352a4bull},
    };
    for (const Case &c : cases) {
        std::vector<std::uint8_t> buf(c.len);
        fillPayload(buf.data(), c.len, c.seq, c.flow);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::uint8_t b : buf) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
        EXPECT_EQ(h, c.fnv) << "len " << c.len << " seq " << c.seq
                            << " flow " << c.flow << ": 0x" << std::hex
                            << h;
    }
}

TEST(FrameDescriptor, MaterializedBytesMatchTheDescriptorContract)
{
    // A descriptor *is* the claim that the frame's bytes are a filler
    // header followed by fillPayload(seq, flow); materializing must
    // honor that contract byte for byte.
    FrameDesc d{/*hdrSeed=*/17, /*seq=*/5, /*flow=*/3, /*payLen=*/256};
    std::vector<std::uint8_t> buf(d.totalLen());
    materializeFrame(d, buf.data());

    for (unsigned i = 0; i < txHeaderBytes; ++i)
        ASSERT_EQ(buf[i], frameHeaderByte(17, i)) << "header byte " << i;

    std::vector<std::uint8_t> pay(256);
    fillPayload(pay.data(), 256, 5, 3);
    EXPECT_TRUE(std::equal(pay.begin(), pay.end(),
                           buf.begin() + txHeaderBytes));

    std::uint32_t seq = 0, flow = 0;
    EXPECT_TRUE(checkPayload(buf.data() + txHeaderBytes, 256, seq, flow));
    EXPECT_EQ(seq, 5u);
    EXPECT_EQ(flow, 3u);
}

TEST(FrameDescriptor, RangeMaterializationMatchesWholeFrame)
{
    FrameDesc d{9, 2, 1, 128};
    std::vector<std::uint8_t> whole(d.totalLen());
    materializeFrame(d, whole.data());

    // Arbitrary windows, including ones straddling the header/payload
    // boundary, must reproduce the same bytes.
    for (auto [off, len] : {std::pair<unsigned, unsigned>{0, 10},
                            {40, 8}, {42, 128}, {30, 100}, {0, 170}}) {
        std::vector<std::uint8_t> part(len, 0xaa);
        materializeFrameRange(d, off, len, part.data());
        EXPECT_TRUE(std::equal(part.begin(), part.end(),
                               whole.begin() + off))
            << "window off=" << off << " len=" << len;
    }
}

TEST(FrameDescriptor, ViewChecksAgreeAcrossDescAndBytePaths)
{
    FrameData fd;
    fd.desc = FrameDesc{1, 11, 2, 300};

    std::uint32_t seq = 0, flow = 0;
    ASSERT_TRUE(checkFrameView(fd.view(), seq, flow)); // O(1) desc path
    EXPECT_EQ(seq, 11u);
    EXPECT_EQ(flow, 2u);

    fd.materialize();
    ASSERT_FALSE(fd.desc);
    seq = flow = 0;
    ASSERT_TRUE(checkFrameView(fd.view(), seq, flow)); // checksum path
    EXPECT_EQ(seq, 11u);
    EXPECT_EQ(flow, 2u);

    seq = flow = 0;
    ASSERT_TRUE(peekFrameView(fd.view(), seq, flow));
    EXPECT_EQ(seq, 11u);
    EXPECT_EQ(flow, 2u);
}

TEST(FrameDescriptor, TruncatedHeaderFailsValidation)
{
    FrameData fd;
    fd.desc = FrameDesc{0, 3, 0, 64};
    fd.materialize();

    // Chop the frame inside the 42-byte header: no payload to check.
    FrameView v = fd.view();
    v.len = txHeaderBytes - 1;
    std::uint32_t seq = 0, flow = 0;
    EXPECT_FALSE(checkFrameView(v, seq, flow));
    EXPECT_FALSE(peekFrameView(v, seq, flow));

    // A descriptor that would denote a runt payload also fails the
    // O(1) check (the integrity header needs 16 payload bytes).
    FrameDesc runt{0, 3, 0, 12};
    FrameView rv;
    rv.desc = &runt;
    rv.len = runt.totalLen();
    EXPECT_FALSE(checkFrameView(rv, seq, flow));
}

TEST(FrameDescriptor, FlippedPatternByteFailsOnlyTheFullCheck)
{
    FrameData fd;
    fd.desc = FrameDesc{0, 8, 0, 256};
    fd.materialize();
    fd.bytes[txHeaderBytes + 60] ^= 0x10; // deep in the pattern

    std::uint32_t seq = 0, flow = 0;
    EXPECT_FALSE(checkFrameView(fd.view(), seq, flow));
    // The peek skips the checksum walk by design, so it still reads
    // the metadata words.
    EXPECT_TRUE(peekFrameView(fd.view(), seq, flow));
    EXPECT_EQ(seq, 8u);
}

TEST(FrameDescriptor, WrongFlowTagIsDetected)
{
    // Byte path: stamp flow 2, then corrupt the magic/flow word.
    std::vector<std::uint8_t> pay(64);
    fillPayload(pay.data(), 64, 1, 2);
    std::uint32_t seq = 0, flow = 0;
    ASSERT_TRUE(checkPayload(pay.data(), 64, seq, flow));
    ASSERT_EQ(flow, 2u);
    // The magic word's low half *is* the flow tag: flipping a low bit
    // keeps the frame structurally valid but surfaces the wrong flow,
    // which is how a misrouted frame is caught downstream.
    pay[12] ^= 0x01;
    ASSERT_TRUE(checkPayload(pay.data(), 64, seq, flow));
    EXPECT_EQ(flow, 3u);
    // Corrupting the magic half of the word fails the check outright.
    pay[14] ^= 0x01;
    EXPECT_FALSE(checkPayload(pay.data(), 64, seq, flow));

    // Descriptor path: a flow id the integrity header cannot carry
    // fails the O(1) check instead of silently truncating.
    FrameDesc bad{0, 1, maxFlowId + 1, 64};
    FrameView v;
    v.desc = &bad;
    v.len = bad.totalLen();
    EXPECT_FALSE(checkFrameView(v, seq, flow));
}
