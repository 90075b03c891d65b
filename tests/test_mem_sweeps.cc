/**
 * @file
 * Parameterized property sweeps of the memory system: scratchpad
 * geometry (banks x requesters) and SDRAM access patterns.
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/scratchpad.hh"
#include "mem/sdram.hh"
#include "sim/random.hh"

using namespace tengig;

namespace {

struct SpadGeom
{
    unsigned banks;
    unsigned requesters;
};

class SpadSweep : public ::testing::TestWithParam<SpadGeom>
{
};

} // namespace

TEST_P(SpadSweep, EveryRequestCompletesExactlyOnce)
{
    const SpadGeom &g = GetParam();
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);
    Scratchpad spad(eq, cpu, g.requesters, 64 * 1024, g.banks);
    Rng rng(g.banks * 131 + g.requesters);

    std::map<unsigned, int> completions;
    constexpr int per_requester = 300;
    eq.schedule(0, [&] {
        for (unsigned r = 0; r < g.requesters; ++r) {
            for (int i = 0; i < per_requester; ++i) {
                spad.access(r, 4 * rng.below(1024),
                            rng.chance(0.5) ? SpadOp::Read
                                            : SpadOp::Write,
                            0, [&completions, r](
                                   const Scratchpad::Response &) {
                                ++completions[r];
                            });
            }
        }
    });
    eq.run();
    for (unsigned r = 0; r < g.requesters; ++r)
        EXPECT_EQ(completions[r], per_requester) << "requester " << r;
    EXPECT_EQ(spad.totalAccesses(),
              static_cast<std::uint64_t>(g.requesters) * per_requester);
}

TEST_P(SpadSweep, ThroughputBoundedByOneGrantPerBankPerCycle)
{
    const SpadGeom &g = GetParam();
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);
    Scratchpad spad(eq, cpu, g.requesters, 64 * 1024, g.banks);

    // Saturate every bank from every requester; the drain time must be
    // at least ceil(total / banks) cycles and close to it.
    constexpr int per_requester = 64;
    int outstanding = 0;
    eq.schedule(0, [&] {
        for (unsigned r = 0; r < g.requesters; ++r) {
            for (int i = 0; i < per_requester; ++i) {
                ++outstanding;
                spad.access(r, static_cast<Addr>(4 * i), SpadOp::Read, 0,
                            [&](const Scratchpad::Response &) {
                                --outstanding;
                            });
            }
        }
    });
    Tick end = eq.run();
    EXPECT_EQ(outstanding, 0);
    std::uint64_t total = static_cast<std::uint64_t>(g.requesters) *
        per_requester;
    std::uint64_t min_cycles = (total + g.banks - 1) / g.banks;
    std::uint64_t actual_cycles = end / 5000;
    EXPECT_GE(actual_cycles, min_cycles);
    // All requests target the same word range, interleaved across
    // banks evenly, so the bound is nearly tight.
    EXPECT_LE(actual_cycles, min_cycles + g.banks + 8);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SpadSweep,
    ::testing::Values(SpadGeom{1, 2}, SpadGeom{1, 8}, SpadGeom{2, 4},
                      SpadGeom{4, 8}, SpadGeom{4, 10}, SpadGeom{8, 12}),
    [](const ::testing::TestParamInfo<SpadGeom> &i) {
        return std::to_string(i.param.banks) + "banks_" +
               std::to_string(i.param.requesters) + "req";
    });

namespace {

class SdramPattern : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(SdramPattern, ConsumedNeverBelowUsefulAndBoundedByWordWaste)
{
    // Property: for any burst size, wire bytes are >= useful bytes and
    // the waste is at most 14 bytes per burst (partial leading +
    // trailing 8-byte words).
    unsigned len = GetParam();
    EventQueue eq;
    ClockDomain bus("membus", 2000);
    GddrSdram ram(eq, bus);
    Rng rng(len);
    int remaining = 64;
    std::function<void()> issue = [&] {
        if (remaining-- <= 0)
            return;
        Addr addr = rng.below(1024) * 1536 + rng.below(8);
        ram.request(0, addr, len, rng.chance(0.5), issue);
    };
    eq.schedule(0, [&] { issue(); });
    eq.run();
    EXPECT_GE(ram.transferredBytes(), ram.usefulBytes());
    EXPECT_LE(ram.transferredBytes(),
              ram.usefulBytes() + 14ull * ram.burstCount());
}

INSTANTIATE_TEST_SUITE_P(BurstSizes, SdramPattern,
                         ::testing::Values(1u, 7u, 42u, 64u, 100u, 1472u,
                                           1518u));
