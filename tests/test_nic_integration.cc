/**
 * @file
 * End-to-end integration tests: full NIC + host + network, checking
 * delivery, ordering, payload integrity and throughput sanity across
 * configurations.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <string>

#include "nic/controller.hh"

using namespace tengig;

namespace {

// Sanitizers reserve and touch shadow memory in proportion to what the
// program maps and writes, so resident-set deltas mean nothing there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool shadowMemory = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool shadowMemory = true;
#else
constexpr bool shadowMemory = false;
#endif
#else
constexpr bool shadowMemory = false;
#endif

/** Resident bytes of this process from /proc/self/statm; 0 if unreadable. */
std::size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t total = 0, resident = 0;
    if (!(statm >> total >> resident))
        return 0;
    return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

NicConfig
baseConfig()
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = 200.0;
    cfg.scratchpadBanks = 4;
    return cfg;
}

/**
 * Run the measured-window lifecycle by hand, reading the frame
 * generator's refusal count at both window edges.  Also checks the
 * stat tree's link.rxDrops, which counts from tick 0: it too is the
 * generator's count alone.
 */
NicResults
runCountingRefusals(const NicConfig &cfg, std::uint64_t &refused)
{
    const Tick warmup = tickPerMs / 2;
    const Tick window = 2 * tickPerMs;
    NicController nic(cfg);
    nic.startRun();
    nic.eventQueue().runUntil(warmup);
    nic.beginMeasurement();
    std::uint64_t before = nic.frameGenerator().framesDropped();
    nic.eventQueue().runUntil(warmup + window);
    NicResults r = nic.endMeasurement();
    refused = nic.frameGenerator().framesDropped() - before;
    EXPECT_EQ(nic.statTree().value("link.rxDrops"),
              static_cast<double>(nic.frameGenerator().framesDropped()));
    nic.stopRun();
    return r;
}

} // namespace

TEST(NicTxPath, DeliversAllFramesInOrderWithIntactPayloads)
{
    NicConfig cfg = baseConfig();
    NicController nic(cfg);
    nic.runTxOnly(500, 20 * tickPerMs);

    EXPECT_EQ(nic.frameSink().framesReceived(), 500u);
    EXPECT_EQ(nic.frameSink().integrityErrors(), 0u);
    EXPECT_EQ(nic.frameSink().orderErrors(), 0u);
    EXPECT_EQ(nic.deviceDriver().txFramesConsumed(), 500u);
}

TEST(NicRxPath, DeliversAllFramesInOrderWithIntactPayloads)
{
    NicConfig cfg = baseConfig();
    NicController nic(cfg);
    nic.runRxOnly(500, 20 * tickPerMs);

    EXPECT_EQ(nic.deviceDriver().rxFramesDelivered(), 500u);
    EXPECT_EQ(nic.deviceDriver().rxIntegrityErrors(), 0u);
    EXPECT_EQ(nic.deviceDriver().rxOrderErrors(), 0u);
}

TEST(NicDuplex, SixCores200MhzReachesNearLineRate)
{
    NicConfig cfg = baseConfig();
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs / 2, 2 * tickPerMs);

    EXPECT_EQ(r.errors, 0u);
    // Line rate for 1472 B UDP duplex is 2 x 9.57 = 19.14 Gb/s; the
    // paper's 6x200 MHz software-only configuration reaches it.
    EXPECT_GT(r.totalUdpGbps, 18.0);
    EXPECT_LE(r.totalUdpGbps, 19.2);

    // The zero-copy contract (DESIGN.md §11): on a clean steady-state
    // workload every frame crosses the data path as a descriptor and
    // nothing ever expands a pattern span into bytes.
    EXPECT_EQ(nic.hostMemory().store().materializations(), 0u);
    EXPECT_EQ(nic.sdram().store().materializations(), 0u);
    EXPECT_GT(nic.sdram().chainedBursts(), 0u);
}

TEST(NicDuplex, RmwEnhancedAt166MhzReachesNearLineRate)
{
    NicConfig cfg = baseConfig();
    cfg.cpuMhz = 166.0;
    cfg.firmware.rmwEnhanced = true;
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs / 2, 2 * tickPerMs);

    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.totalUdpGbps, 18.0);
}

TEST(NicDuplex, SingleCoreIsComputeBound)
{
    NicConfig cfg = baseConfig();
    cfg.cores = 1;
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs / 2, 2 * tickPerMs);

    EXPECT_EQ(r.errors, 0u);
    EXPECT_LT(r.totalUdpGbps, 10.0); // far from 19.1 duplex line rate
    EXPECT_GT(r.totalUdpGbps, 0.5);  // but it does make progress
}

TEST(NicStatTree, CoversEveryComponent)
{
    NicConfig cfg = baseConfig();
    cfg.cores = 2;
    NicController nic(cfg);
    nic.runTxOnly(100, 20 * tickPerMs);
    const obs::StatGroup &t = nic.statTree();
    EXPECT_TRUE(t.has("core0.instructions"));
    EXPECT_TRUE(t.has("core1.ipc"));
    EXPECT_TRUE(t.has("fw.Send_Frame.instructions"));
    EXPECT_TRUE(t.has("spad.accesses"));
    EXPECT_TRUE(t.has("sdram.usefulBytes"));
    EXPECT_DOUBLE_EQ(t.value("link.txFrames"), 100.0);
    EXPECT_DOUBLE_EQ(t.value("check.orderErrors"), 0.0);
    EXPECT_DOUBLE_EQ(t.value("check.integrityErrors"), 0.0);
    EXPECT_GT(t.value("fw.lock0.acquires"), 0.0);
    EXPECT_GT(t.names().size(), 50u);
}

// Every frame the generator sees refused is also a MAC refusal, so
// rxDropped is the generator's count alone, over the window only.
TEST(NicRxDrops, ImixEightFlowsCountsEachRefusalOnceInWindow)
{
    NicConfig cfg = baseConfig();
    cfg.txTraffic = TrafficProfile::imixPoisson(8, 1.0, 0x51);
    cfg.rxTraffic = TrafficProfile::imixPoisson(8, 1.0, 0x52);
    std::uint64_t refused = 0;
    NicResults r = runCountingRefusals(cfg, refused);
    EXPECT_GT(refused, 0u); // the shape sheds rx: not vacuous
    EXPECT_EQ(r.rxDropped, refused);
}

TEST(NicRxDrops, TwoCoreDuplexCountsEachRefusalOnceInWindow)
{
    NicConfig cfg = baseConfig();
    cfg.cores = 2;
    std::uint64_t refused = 0;
    NicResults r = runCountingRefusals(cfg, refused);
    EXPECT_GT(refused, 0u);
    EXPECT_EQ(r.rxDropped, refused);
}

// Host memory (64 MiB) and the SDRAM frame store (8 MiB) are backed by
// lazily-zeroed pages: a NIC costs what its run touches, not its
// capacity.  A change that sweeps either backing eagerly fails here.
TEST(NicFootprint, ShortRunTouchesFewPages)
{
    if (shadowMemory)
        GTEST_SKIP() << "sanitizer shadow memory skews the resident set";
    const std::size_t before = residentBytes();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/statm unreadable";
    NicController nic(NicConfig{});
    nic.run(tickPerMs / 20, tickPerMs / 20);
    const std::size_t after = residentBytes();
    const std::size_t grown = after > before ? after - before : 0;
    EXPECT_LT(grown, 8u * 1024 * 1024)
        << "resident set grew from " << before << " to " << after
        << " bytes";
}

TEST(NicConfigErrors, ZeroSdramIsTooSmallForTheFrameSlots)
{
    NicConfig cfg;
    cfg.sdramBytes = 0;
    try {
        NicController nic(cfg);
        FAIL() << "a zero-byte SDRAM must be fatal";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("sdram too small"), std::string::npos) << msg;
    }
}
