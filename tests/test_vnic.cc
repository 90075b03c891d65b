/**
 * @file
 * Tests for the virtual-function arbitration primitives in isolation
 * (TokenBucket refill/burst math, DRR quantum carryover and weighted
 * convergence) and for the VnicMux glue: flow-range attribution, the
 * merged receive profile's exact-rate algebra, and the posting
 * arbiter's bucket-gated DRR behavior.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "obs/stat_registry.hh"
#include "sim/event_queue.hh"
#include "traffic/traffic_profile.hh"
#include "vnic/arbiter.hh"
#include "vnic/vnic.hh"

using namespace tengig;

namespace {

// 1 Gb/s == 125 micro-bytes per tick == one 1500-byte frame per
// 12e6 ticks.
constexpr Tick ticksPerByteAt1G = 8000;

/** Always-on callbacks for unconstrained DRR runs. */
const std::function<bool(unsigned)> always = [](unsigned) {
    return true;
};

TrafficProfile
fixedProfile(unsigned flows, unsigned payload, double rate,
             std::uint64_t seed)
{
    return TrafficProfile::uniform(flows, SizeModel::fixed(payload),
                                   ArrivalModel::paced(), rate, seed);
}

} // namespace

// ---------------------------------------------------------------------
// TokenBucket

TEST(TokenBucket, StartsFullAndChargesExactly)
{
    TokenBucket b(1.0, 1500);
    EXPECT_FALSE(b.unlimited());
    EXPECT_EQ(b.tokensAt(0), 1500u);
    EXPECT_TRUE(b.tryConsume(0, 1500));
    EXPECT_EQ(b.tokensAt(0), 0u);
    EXPECT_FALSE(b.tryConsume(0, 1));
}

TEST(TokenBucket, RefillIsAPureFunctionOfElapsedTicks)
{
    TokenBucket b(1.0, 1500);
    ASSERT_TRUE(b.tryConsume(0, 1500));
    // 1 Gb/s: a byte earns back in 8000 ticks.
    EXPECT_FALSE(b.eligible(ticksPerByteAt1G - 1, 1));
    EXPECT_TRUE(b.eligible(ticksPerByteAt1G, 1));
    Tick full = b.eligibleAt(0, 1500);
    EXPECT_EQ(full, 1500 * ticksPerByteAt1G);
    EXPECT_FALSE(b.eligible(full - 1, 1500));
    EXPECT_TRUE(b.eligible(full, 1500));
    EXPECT_TRUE(b.tryConsume(full, 1500));
}

TEST(TokenBucket, BurstCapBoundsIdleCredit)
{
    TokenBucket b(1.0, 3000);
    ASSERT_TRUE(b.tryConsume(0, 3000));
    // A week of idle time still caps the balance at the burst depth.
    EXPECT_EQ(b.tokensAt(1ull << 50), 3000u);
    EXPECT_TRUE(b.tryConsume(1ull << 50, 3000));
    EXPECT_FALSE(b.eligible(1ull << 50, 1));
}

TEST(TokenBucket, ZeroRateIsUncontracted)
{
    TokenBucket b;
    EXPECT_TRUE(b.unlimited());
    EXPECT_TRUE(b.tryConsume(0, 1 << 30));
    EXPECT_TRUE(b.eligible(0, 1 << 30));
    EXPECT_EQ(b.eligibleAt(123, 1 << 30), 123u);
}

TEST(TokenBucket, EligibleAtIsTheExactRefillBoundary)
{
    TokenBucket b(2.5, 2048); // 312.5 micro-bytes per tick (rounds)
    ASSERT_TRUE(b.tryConsume(1000, 2048));
    Tick at = b.eligibleAt(1000, 777);
    ASSERT_GT(at, 1000u);
    EXPECT_FALSE(b.eligible(at - 1, 777));
    EXPECT_TRUE(b.eligible(at, 777));
}

// ---------------------------------------------------------------------
// DrrScheduler

TEST(Drr, QuantumCarryoverServesFramesLargerThanTheQuantum)
{
    // Quantum 500 << frame 1500: a VF must bank three rounds of
    // credit per frame, and equal weights still alternate serves.
    DrrScheduler drr({1.0, 1.0}, 500);
    std::map<int, int> served;
    for (int i = 0; i < 20; ++i) {
        int vf = drr.pick(always, always, [](unsigned) { return 1500u; });
        ASSERT_GE(vf, 0);
        ++served[vf];
    }
    EXPECT_EQ(served[0], 10);
    EXPECT_EQ(served[1], 10);
}

TEST(Drr, ConvergesToWeightedSharesUnderPersistentBacklog)
{
    DrrScheduler drr({1.0, 2.0, 4.0}, 2048);
    std::vector<unsigned> served(3, 0);
    const unsigned total = 7000;
    for (unsigned i = 0; i < total; ++i) {
        int vf = drr.pick(always, always, [](unsigned) { return 1500u; });
        ASSERT_GE(vf, 0);
        ++served[vf];
    }
    double unit = static_cast<double>(total) / 7.0;
    EXPECT_NEAR(served[0], 1.0 * unit, 0.05 * total);
    EXPECT_NEAR(served[1], 2.0 * unit, 0.05 * total);
    EXPECT_NEAR(served[2], 4.0 * unit, 0.05 * total);
}

namespace {

/** VF 1's head frame is ten quanta wide, so it banks deficit across
 *  rounds while VF 0 (small head) is served.  Runs picks until VF 1
 *  has nonzero banked credit and returns that deficit. */
std::uint64_t
bankDeficitOnVf1(DrrScheduler &drr)
{
    auto heads = [](unsigned vf) { return vf == 0 ? 1500u : 5000u; };
    for (int i = 0; i < 16; ++i) {
        EXPECT_GE(drr.pick(always, always, heads), 0);
        if (drr.deficit(1) > 0)
            return drr.deficit(1);
    }
    ADD_FAILURE() << "vf1 never banked any deficit";
    return 0;
}

} // namespace

TEST(Drr, IdleVfForfeitsItsDeficit)
{
    DrrScheduler drr({1.0, 1.0}, 500);
    ASSERT_GT(bankDeficitOnVf1(drr), 0u);
    // Going idle wipes the banked credit the moment the scheduler
    // passes over the slot (fairness is over backlogged periods only).
    auto idle1 = [](unsigned vf) { return vf == 0; };
    for (int i = 0; i < 4; ++i)
        drr.pick(idle1, always, [](unsigned) { return 1500u; });
    EXPECT_EQ(drr.deficit(1), 0u);
}

TEST(Drr, ThrottledVfKeepsItsDeficitAndNoEligibleBacklogReturnsMinusOne)
{
    DrrScheduler drr({1.0, 1.0}, 500);
    std::uint64_t banked = bankDeficitOnVf1(drr);
    ASSERT_GT(banked, 0u);
    // Backlogged but rate-throttled everywhere: nothing to serve, and
    // the banked deficit survives for when the bucket refills.
    auto none = [](unsigned) { return false; };
    auto heads = [](unsigned vf) { return vf == 0 ? 1500u : 5000u; };
    EXPECT_EQ(drr.pick(always, none, heads), -1);
    EXPECT_EQ(drr.deficit(1), banked);
    EXPECT_EQ(drr.pick(always, none, heads), -1);
    EXPECT_EQ(drr.deficit(1), banked);
    // Back to eligible: VF 1 resumes from its banked credit and is
    // eventually served without having lost a round.
    bool served1 = false;
    for (int i = 0; i < 16 && !served1; ++i)
        served1 = drr.pick(always, always, heads) == 1;
    EXPECT_TRUE(served1);
}

// ---------------------------------------------------------------------
// Merged receive profile: each flow keeps its solo frame rate.

TEST(MergedRxProfile, PreservesSoloPerFlowFrameRatesExactly)
{
    VfConfig a;
    a.rxTraffic = fixedProfile(2, 1472, 0.30, 0x11);
    VfConfig b;
    b.rxTraffic = fixedProfile(3, 256, 0.20, 0x22);

    TrafficProfile merged = VnicMux::mergedRxProfile({a, b});
    ASSERT_EQ(merged.flows.size(), 5u);
    EXPECT_DOUBLE_EQ(merged.offeredRate, 0.50);

    // The merged engine emits frames_per_tick = offeredRate /
    // sum_f(share_f * meanWire_f) and splits them by weight; with the
    // merged weights set to the solo per-flow frame rates the
    // denominator telescopes to offeredRate, so each flow's rate is
    // its weight.  Check the algebra end to end.
    double denom = 0.0;
    double total_w = 0.0;
    for (const FlowSpec &f : merged.flows)
        total_w += f.weight;
    for (const FlowSpec &f : merged.flows)
        denom += f.weight / total_w * f.size.meanWireTicks();
    for (std::size_t i = 0; i < merged.flows.size(); ++i) {
        const TrafficProfile &solo = i < 2 ? a.rxTraffic : b.rxTraffic;
        double solo_share = 1.0 / solo.flows.size();
        double solo_rate = solo.offeredRate /
            solo.flows[0].size.meanWireTicks() * solo_share;
        double merged_rate = merged.offeredRate / denom *
            (merged.flows[i].weight / total_w);
        EXPECT_NEAR(merged_rate, solo_rate, 1e-12 + 1e-9 * solo_rate);
    }
}

// ---------------------------------------------------------------------
// VnicMux posting arbiter (no datapath: driven directly)

namespace {

VnicMux::Config
twoTenantConfig(double rate0_gbps)
{
    VnicMux::Config c;
    VfConfig v0;
    v0.name = "limited";
    v0.txRateGbps = rate0_gbps;
    v0.burstBytes = 1472;
    v0.txTraffic = fixedProfile(1, 1472, 1.0, 0xaa);
    VfConfig v1;
    v1.name = "open";
    v1.txTraffic = fixedProfile(1, 1472, 1.0, 0xbb);
    c.vfs = {v0, v1};
    return c;
}

} // namespace

TEST(VnicMux, FlowRangesAttributeGlobally)
{
    EventQueue eq;
    VnicMux mux(eq, twoTenantConfig(0.0), nullptr);
    EXPECT_EQ(mux.txFlowBase(0), 0u);
    EXPECT_EQ(mux.txFlowBase(1), 1u);
    EXPECT_EQ(mux.txVfOfFlow(0), 0u);
    EXPECT_EQ(mux.txVfOfFlow(1), 1u);
}

TEST(VnicMux, AdmissionBucketConfinesARateLimitedTenant)
{
    EventQueue eq;
    // VF 0 gets a one-frame burst at 1 Gb/s; VF 1 is uncontracted.
    // With the clock parked at tick 0 the bucket never refills, so
    // after its burst VF 0 must win nothing more while VF 1 keeps the
    // link (work conservation).
    VnicMux mux(eq, twoTenantConfig(1.0), nullptr);
    obs::StatGroup vf;
    mux.registerStats(vf);
    std::uint64_t seq = 0;
    for (int i = 0; i < 64; ++i) {
        auto next = mux.nextTxFrame(seq);
        ASSERT_TRUE(next.has_value());
        unsigned vf = mux.txVfOf(seq);
        EXPECT_EQ(vf, mux.txVfOfFlow(next->first));
        ++seq;
    }
    EXPECT_EQ(vf.value("limited.tx.posted"), 1.0); // the initial burst
    EXPECT_EQ(vf.value("open.tx.posted"), 63.0);
}

TEST(VnicMux, ExhaustedLoneTenantDefersUntilRefill)
{
    EventQueue eq;
    VnicMux::Config c;
    VfConfig v;
    v.txRateGbps = 1.0;
    v.burstBytes = 1472;
    v.txTraffic = fixedProfile(1, 1472, 1.0, 0xdd);
    c.vfs = {v};
    VnicMux mux(eq, c, nullptr);
    obs::StatGroup vf;
    mux.registerStats(vf);
    // The burst covers exactly one frame; with the clock parked the
    // second pull has no eligible VF and must defer (arming the
    // refill wake-up rather than spinning).
    ASSERT_TRUE(mux.nextTxFrame(0).has_value());
    EXPECT_FALSE(mux.nextTxFrame(1).has_value());
    EXPECT_FALSE(mux.nextTxFrame(1).has_value());
    EXPECT_GE(vf.value("vf0.tx.admit_defers"), 2.0);
    EXPECT_EQ(vf.value("vf0.tx.posted"), 1.0);
}

TEST(VnicMux, UnlimitedTenantsSplitByDrrWeight)
{
    EventQueue eq;
    VnicMux::Config c;
    for (unsigned i = 0; i < 2; ++i) {
        VfConfig v;
        v.weight = i == 0 ? 1.0 : 3.0;
        v.txTraffic = fixedProfile(1, 1472, 1.0, 0x100 + i);
        c.vfs.push_back(v);
    }
    VnicMux mux(eq, c, nullptr);
    obs::StatGroup vf;
    mux.registerStats(vf);
    for (std::uint64_t seq = 0; seq < 4000; ++seq)
        ASSERT_TRUE(mux.nextTxFrame(seq).has_value());
    double posted0 = vf.value("vf0.tx.posted");
    double posted1 = vf.value("vf1.tx.posted");
    EXPECT_NEAR(posted0 / 4000.0, 0.25, 0.02);
    EXPECT_EQ(posted0 + posted1, 4000.0);
}

TEST(VnicMux, CommitGateChargesPayloadBytesOnly)
{
    EventQueue eq;
    VnicMux mux(eq, twoTenantConfig(1.0), nullptr);
    obs::StatGroup vf;
    mux.registerStats(vf);
    // Post one VF-0 frame so seq 0 belongs to the limited tenant.
    auto first = mux.nextTxFrame(0);
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(mux.txVfOf(0), 0u);
    // The enforcement bucket holds exactly one 1472-byte burst; the
    // gate sees header+payload lengths and must strip the 42-byte
    // header before charging.
    EXPECT_TRUE(mux.commitPeek(0, txHeaderBytes + 1472));
    EXPECT_TRUE(mux.commitAdmit(0, txHeaderBytes + 1472));
    EXPECT_FALSE(mux.commitPeek(0, txHeaderBytes + 1472));
    EXPECT_FALSE(mux.commitAdmit(0, txHeaderBytes + 1472));
    EXPECT_GT(vf.value("limited.tx.commit_stalls"), 0.0);
}

TEST(VnicMux, RxPolicerDropsBeyondContractAndCountsThem)
{
    EventQueue eq;
    VnicMux::Config c = twoTenantConfig(0.0);
    c.vfs[0].rxRateGbps = 1.0;
    c.vfs[0].rxTraffic = fixedProfile(1, 1472, 0.1, 0xcc);
    VnicMux mux(eq, c, nullptr);
    obs::StatGroup vf;
    mux.registerStats(vf);
    // One burst's worth passes, the next arrival at the same tick is
    // policed; the unlimited tenant is untouched.
    EXPECT_TRUE(mux.rxAdmit(0, 1472));
    EXPECT_FALSE(mux.rxAdmit(0, 1472));
    EXPECT_TRUE(mux.rxAdmit(1, 1 << 20));
    EXPECT_EQ(vf.value("limited.rx.policed"), 1.0);
    EXPECT_EQ(vf.value("open.rx.policed"), 0.0);
}
