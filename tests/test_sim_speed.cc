/**
 * @file
 * Determinism guards for the simulator hot-path machinery: the
 * recycled-slot event queue, recurring events, and the parallel sweep
 * runner.
 *
 * These tests pin the central invariant of the performance work: none
 * of it may change any simulated result.  A full duplex run must
 * produce an identical stat tree every time, and through the threaded
 * sweep runner.
 */

#include <gtest/gtest.h>

#include <string>

#include "bench/bench_util.hh"
#include "nic/controller.hh"

using namespace tengig;

namespace {

struct RunOutput
{
    NicResults res;
    std::string stats; //!< the stat tree as JSON
    std::uint64_t executedEvents = 0;
};

RunOutput
runDuplex()
{
    NicConfig cfg;
    cfg.cores = 2;
    cfg.cpuMhz = 200.0;
    NicController nic(cfg);
    RunOutput o;
    o.res = nic.run(tickPerMs / 4, tickPerMs / 2);
    o.stats = nic.statTree().toJson().dump();
    o.executedEvents = nic.eventQueue().executedEvents();
    return o;
}

void
expectResultsEq(const NicResults &a, const NicResults &b)
{
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.totalUdpGbps, b.totalUdpGbps);
    EXPECT_EQ(a.txUdpGbps, b.txUdpGbps);
    EXPECT_EQ(a.rxUdpGbps, b.rxUdpGbps);
    EXPECT_EQ(a.txFrames, b.txFrames);
    EXPECT_EQ(a.rxFrames, b.rxFrames);
    EXPECT_EQ(a.rxDropped, b.rxDropped);
    EXPECT_EQ(a.errors, b.errors);
    EXPECT_EQ(a.aggregateIpc, b.aggregateIpc);
}

} // namespace

TEST(Determinism, DuplexRunRepeatsExactly)
{
    RunOutput first = runDuplex();
    RunOutput second = runDuplex();
    expectResultsEq(first.res, second.res);
    EXPECT_EQ(first.executedEvents, second.executedEvents);
    // Every stat in the tree, as one JSON document.
    EXPECT_EQ(first.stats, second.stats);
}

TEST(Determinism, SweepRunnerMatchesSerial)
{
    RunOutput serial = runDuplex();
    // Two copies of the same point through the threaded runner: both
    // must reproduce the serial run exactly.
    auto swept = bench::runSweep(2, 2,
                                 [](std::size_t) { return runDuplex(); });
    ASSERT_EQ(swept.size(), 2u);
    for (const RunOutput &o : swept) {
        expectResultsEq(serial.res, o.res);
        EXPECT_EQ(serial.executedEvents, o.executedEvents);
        EXPECT_EQ(serial.stats, o.stats);
    }
}
