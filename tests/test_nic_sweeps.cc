/**
 * @file
 * Parameterized correctness sweeps of the full NIC: every
 * configuration must deliver every frame exactly once, in order, with
 * intact payloads -- across core counts, bank counts, ordering
 * strategies, firmware organizations, and frame sizes.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "nic/controller.hh"

using namespace tengig;

namespace {

struct SweepParam
{
    unsigned cores;
    unsigned banks;
    bool rmw;
    bool taskLevel;
    unsigned payload;
};

std::string
paramName(const ::testing::TestParamInfo<SweepParam> &info)
{
    const SweepParam &p = info.param;
    std::string s = std::to_string(p.cores) + "c_" +
        std::to_string(p.banks) + "b_" + (p.rmw ? "rmw" : "sw") +
        (p.taskLevel ? "_task" : "_frame") + "_" +
        std::to_string(p.payload) + "B";
    return s;
}

class NicSweep : public ::testing::TestWithParam<SweepParam>
{
};

} // namespace

TEST_P(NicSweep, TxDeliversExactlyOnceInOrder)
{
    const SweepParam &p = GetParam();
    NicConfig cfg;
    cfg.cores = p.cores;
    cfg.scratchpadBanks = p.banks;
    cfg.firmware.rmwEnhanced = p.rmw;
    cfg.taskLevelFirmware = p.taskLevel;
    cfg.txTraffic = TrafficProfile::paper(p.payload);
    cfg.rxTraffic = cfg.txTraffic;
    NicController nic(cfg);
    nic.runFrames(150, 0, 100 * tickPerMs);

    EXPECT_EQ(nic.txFlowSink().framesReceived(), 150u);
    EXPECT_EQ(nic.txFlowSink().errors(), 0u);
    EXPECT_EQ(nic.deviceDriver().txFramesConsumed(), 150u);
}

TEST_P(NicSweep, RxDeliversInOrderWithIntactPayloads)
{
    const SweepParam &p = GetParam();
    NicConfig cfg;
    cfg.cores = p.cores;
    cfg.scratchpadBanks = p.banks;
    cfg.firmware.rmwEnhanced = p.rmw;
    cfg.taskLevelFirmware = p.taskLevel;
    cfg.txTraffic = TrafficProfile::paper(p.payload);
    cfg.rxTraffic = cfg.txTraffic;
    // Small frames at full line rate overload the firmware and the MAC
    // sheds load (covered by DuplexStress); exactly-once delivery is
    // checked at a sustainable offered rate.
    if (p.payload < 500)
        cfg.rxTraffic.offeredRate = 0.05;
    NicController nic(cfg);
    nic.runFrames(0, 150, 100 * tickPerMs);

    EXPECT_EQ(nic.deviceDriver().rxFramesDelivered(), 150u);
    EXPECT_EQ(nic.rxFlowSink().errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, NicSweep,
    ::testing::Values(
        SweepParam{1, 4, false, false, 1472},
        SweepParam{2, 2, false, false, 1472},
        SweepParam{4, 4, false, false, 1472},
        SweepParam{6, 4, false, false, 1472},
        SweepParam{8, 8, false, false, 1472},
        SweepParam{6, 4, true, false, 1472},
        SweepParam{2, 4, true, false, 1472},
        SweepParam{4, 4, false, true, 1472},
        SweepParam{6, 4, false, true, 1472},
        SweepParam{6, 1, false, false, 1472},
        SweepParam{6, 4, false, false, 18},
        SweepParam{6, 4, true, false, 18},
        SweepParam{6, 4, false, false, 100},
        SweepParam{6, 4, false, false, 700},
        SweepParam{4, 2, true, false, 333}),
    paramName);

namespace {

class DuplexStress : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(DuplexStress, NoErrorsUnderSaturatingDuplexLoad)
{
    // Small payloads overload the firmware: frames may drop at the MAC
    // (hardware sheds load) but nothing may be corrupted, reordered,
    // or duplicated.
    NicConfig cfg;
    cfg.cores = 4;
    cfg.txTraffic = TrafficProfile::paper(GetParam());
    cfg.rxTraffic = cfg.txTraffic;
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs, 2 * tickPerMs);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.txFrames, 100u);
    EXPECT_GT(r.rxFrames, 100u);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, DuplexStress,
                         ::testing::Values(18u, 64u, 256u, 1000u, 1472u));
