/**
 * @file
 * End-to-end integration tests: full NIC + host + network, checking
 * delivery, ordering, payload integrity and throughput sanity across
 * configurations.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
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
    nic.runFrames(500, 0, 20 * tickPerMs);

    EXPECT_EQ(nic.txFlowSink().framesReceived(), 500u);
    EXPECT_EQ(nic.txFlowSink().errors(), 0u);
    EXPECT_EQ(nic.deviceDriver().txFramesConsumed(), 500u);
}

TEST(NicRxPath, DeliversAllFramesInOrderWithIntactPayloads)
{
    NicConfig cfg = baseConfig();
    NicController nic(cfg);
    nic.runFrames(0, 500, 20 * tickPerMs);

    EXPECT_EQ(nic.deviceDriver().rxFramesDelivered(), 500u);
    EXPECT_EQ(nic.rxFlowSink().errors(), 0u);
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

TEST(NicLifecycle, ThawDuringALiveInvocationKeepsOneReplayChain)
{
    // A one-cycle freeze lands while every core is mid-invocation:
    // the thaw must resume each core's live replay, not fork a second
    // one beside it.
    NicController nic(baseConfig());
    EventQueue &eq = nic.eventQueue();
    nic.startRun();
    eq.runUntil(100 * tickPerUs);
    nic.freezeCores();
    eq.schedule(eq.curTick() + 5 * tickPerNs, [&nic] { nic.thawCores(); });
    EXPECT_NO_THROW(eq.runUntil(300 * tickPerUs));
    nic.beginMeasurement();
    eq.runUntil(800 * tickPerUs);
    NicResults r = nic.endMeasurement();
    nic.stopRun();
    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.totalUdpGbps, 18.0);
}

TEST(NicStatTree, CoversEveryComponent)
{
    NicConfig cfg = baseConfig();
    cfg.cores = 2;
    NicController nic(cfg);
    nic.runFrames(100, 0, 20 * tickPerMs);
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

namespace {

/** Building @p cfg must raise a FatalError whose message names
 *  @p what. */
void
expectFatal(const NicConfig &cfg, const std::string &what)
{
    try {
        NicController nic(cfg);
        ADD_FAILURE() << "expected a FatalError naming \"" << what << "\"";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
}

} // namespace

TEST(NicConfigErrors, CoreCountOutsideRangeIsFatal)
{
    for (unsigned n : {0u, 65u}) {
        NicConfig cfg;
        cfg.cores = n;
        expectFatal(cfg, "cores must be in [1, 64], got " +
                             std::to_string(n));
    }
}

TEST(NicConfigErrors, CpuClockOutsideRangeIsFatal)
{
    // NaN and -5 used to reach the MHz-to-ticks conversion (undefined
    // behaviour) and 1e7 a zero-period clock domain.
    for (double mhz : {std::nan(""), -5.0, 0.0, 1e7}) {
        NicConfig cfg;
        cfg.cpuMhz = mhz;
        expectFatal(cfg, "cpuMhz must be in [1, 10000], got ");
    }
}

TEST(NicConfigErrors, ScratchpadBanksOutsideRangeIsFatal)
{
    // Just outside both ends.  Unchecked, 0 would reach the
    // scratchpad's own check, which names no field, and a large value
    // would size the bank table before anything checks it.
    for (unsigned n : {0u, 65u}) {
        NicConfig cfg;
        cfg.scratchpadBanks = n;
        expectFatal(cfg, "scratchpadBanks must be in [1, 64], got " +
                             std::to_string(n));
    }
}

TEST(NicConfigErrors, EmptySendRingIsFatal)
{
    NicConfig cfg;
    cfg.sendRingFrames = 0;
    expectFatal(cfg, "sendRingFrames must be >= 1, got 0");
}

TEST(NicConfigErrors, NanOfferedRateIsFatal)
{
    // The error names the profile that holds the bad rate.
    NicConfig rx;
    rx.rxTraffic.offeredRate = std::nan("");
    expectFatal(rx, "fatal: rxTraffic: offered rate must be in (0, 1]");
    NicConfig tx;
    tx.txTraffic.offeredRate = std::nan("");
    expectFatal(tx, "fatal: txTraffic: offered rate must be in (0, 1]");
}

TEST(NicConfigErrors, PayloadOutsideUdpRangeIsFatal)
{
    for (unsigned bytes : {0u, 9000u}) {
        std::string want = "payload size must be in [18, 1472], got " +
                           std::to_string(bytes);
        NicConfig rx;
        rx.rxTraffic = TrafficProfile::paper(bytes);
        expectFatal(rx, want);
        NicConfig tx;
        tx.txTraffic = TrafficProfile::paper(bytes);
        expectFatal(tx, want);
    }
}

TEST(NicConfigErrors, TsoWithTxTrafficProfileIsFatal)
{
    // TSO runs only a one-flow fixed-size txTraffic, the default.
    NicConfig cfg;
    cfg.firmware.tsoSegments = 4;
    cfg.txTraffic = TrafficProfile::uniform(
        2, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0, 1);
    expectFatal(cfg, "TSO needs one payload size per group");
    cfg.txTraffic = TrafficProfile::bimodalRequestResponse(1, 90, 1472,
                                                           0.5, 1.0, 1);
    expectFatal(cfg, "TSO needs one payload size per group");
}

TEST(NicConfigErrors, TsoWithPacedPostingIsFatal)
{
    NicConfig cfg;
    cfg.firmware.tsoSegments = 4;
    cfg.txPaceRate = 0.5;
    expectFatal(cfg, "TSO needs an unpaced source (txPaceRate 0)");
}

TEST(NicConfigErrors, EmptyTxTrafficWithoutVfsIsFatal)
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile{};
    expectFatal(cfg, "txTraffic has no flows");
}

TEST(NicConfigErrors, VfRunMisuseIsFatal)
{
    VfConfig vf;
    vf.txTraffic = TrafficProfile::paper();
    NicConfig cfg;
    cfg.vfs = {vf};
    // The NIC-level profiles must be empty: the VFs own the workload.
    expectFatal(cfg, "cfg.txTraffic/cfg.rxTraffic");
    cfg.txTraffic = TrafficProfile{};
    expectFatal(cfg, "cfg.txTraffic/cfg.rxTraffic");
    cfg.rxTraffic = TrafficProfile{};
    cfg.txPaceRate = 0.5;
    expectFatal(cfg, "txPaceRate must be 0 on vnic runs");
    // Each VF is checked, and named.
    cfg.txPaceRate = 0.0;
    cfg.vfs[0].weight = 0.0;
    expectFatal(cfg, "vfs[0]: vf weight must be positive");
    // So is each of a VF's profiles.
    cfg.vfs[0].weight = 1.0;
    cfg.vfs[0].txTraffic.offeredRate = std::nan("");
    expectFatal(cfg, "vfs[0]: txTraffic: offered rate must be in (0, 1]");
}
