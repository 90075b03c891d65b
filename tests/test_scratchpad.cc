/**
 * @file
 * Unit tests for the banked scratchpad: storage, timing, arbitration,
 * and the paper's atomic set/update RMW instructions.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/scratchpad.hh"
#include "sim/random.hh"

using namespace tengig;

namespace {

struct SpadFixture : public ::testing::Test
{
    SpadFixture()
        : cpu("cpu", 5000),
          spad(eq, cpu, /*requesters=*/8, /*capacity=*/256 * 1024,
               /*banks=*/4)
    {}

    EventQueue eq;
    ClockDomain cpu;
    Scratchpad spad;
};

} // namespace

TEST_F(SpadFixture, StorageLoadStore)
{
    auto &st = spad.storage();
    st.storeWord(0x100, 0xdeadbeef);
    EXPECT_EQ(st.loadWord(0x100), 0xdeadbeefu);
    st.storeByte(0x104, 0xab);
    EXPECT_EQ(st.loadByte(0x104), 0xab);
}

TEST_F(SpadFixture, StorageAllocatorAlignsAndAdvances)
{
    auto &st = spad.storage();
    Addr a = st.alloc(10, 8);
    Addr b = st.alloc(4, 8);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 8, 0u);
    EXPECT_GE(b, a + 10);
}

TEST_F(SpadFixture, StorageOutOfRangePanics)
{
    EXPECT_THROW(spad.storage().loadWord(256 * 1024), PanicError);
}

TEST_F(SpadFixture, BankInterleavingByWord)
{
    EXPECT_EQ(spad.bankOf(0x0), 0u);
    EXPECT_EQ(spad.bankOf(0x4), 1u);
    EXPECT_EQ(spad.bankOf(0x8), 2u);
    EXPECT_EQ(spad.bankOf(0xc), 3u);
    EXPECT_EQ(spad.bankOf(0x10), 0u);
}

TEST_F(SpadFixture, UncontendedReadTakesTwoCycles)
{
    spad.storage().storeWord(0x40, 77);
    Tick done = 0;
    std::uint32_t data = 0;
    eq.schedule(0, [&] {
        spad.access(0, 0x40, SpadOp::Read, 0,
                    [&](const Scratchpad::Response &r) {
                        done = eq.curTick();
                        data = r.data;
                        EXPECT_EQ(r.conflictCycles, 0u);
                    });
    });
    eq.run();
    EXPECT_EQ(done, 2 * 5000u);
    EXPECT_EQ(data, 77u);
}

TEST_F(SpadFixture, WriteAcceptsAfterOneCycle)
{
    Tick done = 0;
    eq.schedule(0, [&] {
        spad.access(0, 0x40, SpadOp::Write, 123,
                    [&](const Scratchpad::Response &r) {
                        done = eq.curTick();
                        EXPECT_TRUE(r.isWrite);
                    });
    });
    eq.run();
    EXPECT_EQ(done, 5000u);
    EXPECT_EQ(spad.storage().loadWord(0x40), 123u);
}

TEST_F(SpadFixture, SameBankConflictSerializes)
{
    // Two requesters hitting the same bank in the same cycle: the second
    // grant waits one cycle and reports one conflict cycle.
    std::vector<Tick> done(2, 0);
    std::vector<Cycles> conf(2, 0);
    eq.schedule(0, [&] {
        for (unsigned i = 0; i < 2; ++i) {
            spad.access(i, 0x40, SpadOp::Read, 0,
                        [&, i](const Scratchpad::Response &r) {
                            done[i] = eq.curTick();
                            conf[i] = r.conflictCycles;
                        });
        }
    });
    eq.run();
    EXPECT_EQ(done[0], 2 * 5000u);
    EXPECT_EQ(done[1], 3 * 5000u);
    EXPECT_EQ(conf[0], 0u);
    EXPECT_EQ(conf[1], 1u);
    EXPECT_EQ(spad.totalConflictCycles(), 1u);
}

TEST_F(SpadFixture, DifferentBanksProceedInParallel)
{
    std::vector<Tick> done(4, 0);
    eq.schedule(0, [&] {
        for (unsigned i = 0; i < 4; ++i) {
            spad.access(i, 0x40 + 4 * i, SpadOp::Read, 0,
                        [&, i](const Scratchpad::Response &) {
                            done[i] = eq.curTick();
                        });
        }
    });
    eq.run();
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(done[i], 2 * 5000u) << "bank " << i;
}

TEST_F(SpadFixture, RoundRobinIsFairUnderSaturation)
{
    // Requesters 0..3 continuously hammer bank 0; each should receive an
    // equal share of grants.
    std::map<unsigned, int> grants;
    int remaining = 400;
    std::function<void(unsigned)> issue = [&](unsigned who) {
        spad.access(who, 0x0, SpadOp::Read, 0,
                    [&, who](const Scratchpad::Response &) {
                        ++grants[who];
                        if (--remaining > 0)
                            issue(who);
                    });
    };
    eq.schedule(0, [&] {
        for (unsigned i = 0; i < 4; ++i)
            issue(i);
    });
    eq.run();
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_NEAR(grants[i], 100, 2) << "requester " << i;
}

TEST_F(SpadFixture, OneGrantPerBankPerCycle)
{
    // Issue N requests to one bank at tick 0; completion times must be
    // consecutive cycles (grant rate = 1/cycle).
    constexpr int n = 10;
    std::vector<Tick> done;
    eq.schedule(0, [&] {
        for (int i = 0; i < n; ++i) {
            spad.access(0, 0x0, SpadOp::Read, 0,
                        [&](const Scratchpad::Response &) {
                            done.push_back(eq.curTick());
                        });
        }
    });
    eq.run();
    ASSERT_EQ(done.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(done[i], (2 + static_cast<Tick>(i)) * 5000u);
}

TEST_F(SpadFixture, LateArrivalDoesNotDoubleGrantInOneCycle)
{
    // A request arriving in the same tick as a grant must wait for the
    // next cycle.
    std::vector<Tick> done;
    eq.schedule(0, [&] {
        spad.access(0, 0x0, SpadOp::Read, 0,
                    [&](const Scratchpad::Response &) {
                        done.push_back(eq.curTick());
                    });
        // Arrives later in the same tick via a lower-priority event.
        eq.schedule(0, [&] {
            spad.access(1, 0x0, SpadOp::Read, 0,
                        [&](const Scratchpad::Response &) {
                            done.push_back(eq.curTick());
                        });
        }, EventPriority::Cpu);
    });
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 2 * 5000u);
    EXPECT_EQ(done[1], 3 * 5000u);
}

TEST_F(SpadFixture, AtomicSetSetsExactlyOneBit)
{
    spad.storage().storeWord(0x80, 0);
    Tick done = 0;
    eq.schedule(0, [&] {
        spad.access(2, 0x80, SpadOp::AtomicSet, 5,
                    [&](const Scratchpad::Response &r) {
                        done = eq.curTick();
                        EXPECT_EQ(r.data, 1u << 5);
                    });
    });
    eq.run();
    EXPECT_EQ(done, 2 * 5000u);
    EXPECT_EQ(spad.storage().loadWord(0x80), 1u << 5);
}

TEST_F(SpadFixture, AtomicUpdateClearsConsecutiveRun)
{
    // bits 3,4,5,7 set; update starting at bit 3 clears 3,4,5 and
    // returns 3; bit 7 remains.
    spad.storage().storeWord(0x80, 0b10111000);
    std::uint32_t cleared = 0;
    eq.schedule(0, [&] {
        spad.access(0, 0x80, SpadOp::AtomicUpdate, 3,
                    [&](const Scratchpad::Response &r) {
                        cleared = r.data;
                    });
    });
    eq.run();
    EXPECT_EQ(cleared, 3u);
    EXPECT_EQ(spad.storage().loadWord(0x80), 0b10000000u);
}

TEST_F(SpadFixture, AtomicUpdateStartBitClearReturnsZero)
{
    spad.storage().storeWord(0x80, 0b100);
    std::uint32_t cleared = 99;
    eq.schedule(0, [&] {
        spad.access(0, 0x80, SpadOp::AtomicUpdate, 0,
                    [&](const Scratchpad::Response &r) {
                        cleared = r.data;
                    });
    });
    eq.run();
    EXPECT_EQ(cleared, 0u);
    EXPECT_EQ(spad.storage().loadWord(0x80), 0b100u);
}

TEST_F(SpadFixture, AtomicUpdateStopsAtWordBoundary)
{
    // Entire word set: update from bit 0 clears all 32 and stops.
    spad.storage().storeWord(0x80, 0xffffffff);
    spad.storage().storeWord(0x84, 0xffffffff);
    std::uint32_t cleared = 0;
    eq.schedule(0, [&] {
        spad.access(0, 0x80, SpadOp::AtomicUpdate, 0,
                    [&](const Scratchpad::Response &r) {
                        cleared = r.data;
                    });
    });
    eq.run();
    EXPECT_EQ(cleared, 32u);
    EXPECT_EQ(spad.storage().loadWord(0x80), 0u);
    // Next word untouched (at most one aligned word per update).
    EXPECT_EQ(spad.storage().loadWord(0x84), 0xffffffffu);
}

TEST_F(SpadFixture, AtomicTestSetReturnsOldValue)
{
    spad.storage().storeWord(0x90, 0);
    std::vector<std::uint32_t> old;
    eq.schedule(0, [&] {
        for (int i = 0; i < 2; ++i) {
            spad.access(0, 0x90, SpadOp::AtomicTestSet, 0,
                        [&](const Scratchpad::Response &r) {
                            old.push_back(r.data);
                        });
        }
    });
    eq.run();
    ASSERT_EQ(old.size(), 2u);
    EXPECT_EQ(old[0], 0u); // first acquire wins
    EXPECT_EQ(old[1], 1u); // second sees it held
    EXPECT_EQ(spad.storage().loadWord(0x90), 1u);
}

TEST_F(SpadFixture, AtomicityUnderConcurrentSets)
{
    // Property: 32 concurrent AtomicSet ops on one word, one per bit,
    // must all land regardless of arbitration order.
    spad.storage().storeWord(0x80, 0);
    eq.schedule(0, [&] {
        for (unsigned bit = 0; bit < 32; ++bit) {
            spad.access(bit % 8, 0x80, SpadOp::AtomicSet, bit,
                        [](const Scratchpad::Response &) {});
        }
    });
    eq.run();
    EXPECT_EQ(spad.storage().loadWord(0x80), 0xffffffffu);
}

TEST_F(SpadFixture, StatsCountAccessesByKind)
{
    eq.schedule(0, [&] {
        spad.access(0, 0x0, SpadOp::Read, 0, nullptr);
        spad.access(0, 0x4, SpadOp::Write, 1, nullptr);
        spad.access(0, 0x8, SpadOp::AtomicSet, 0, nullptr);
        spad.access(0, 0xc, SpadOp::AtomicUpdate, 0, nullptr);
    });
    eq.run();
    EXPECT_EQ(spad.totalAccesses(), 4u);
    EXPECT_EQ(spad.readAccesses(), 1u);
    EXPECT_EQ(spad.writeAccesses(), 1u);
    EXPECT_EQ(spad.rmwAccesses(), 2u);
}

TEST_F(SpadFixture, ConsumedBandwidthMath)
{
    // 4 accesses x 32 bits over 10 cycles @200MHz (50 ns) =
    // 128 bits / 50 ns = 2.56 Gb/s.
    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i)
            spad.access(0, static_cast<Addr>(4 * i), SpadOp::Read, 0,
                        nullptr);
    });
    eq.run();
    EXPECT_NEAR(spad.consumedBandwidthGbps(50000), 2.56, 1e-9);
}

TEST(ScratchpadConfig, RejectsBadGeometry)
{
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);
    EXPECT_THROW(Scratchpad(eq, cpu, 4, 1024, 0), FatalError);
}

TEST(ScratchpadRandom, ConcurrentAtomicSetsMatchOrderIndependentOracle)
{
    // Property: the final state after an arbitrary interleaving of
    // AtomicSet ops equals the OR of all requested bits (sets commute),
    // independent of bank count and arbitration order.
    Rng rng(1234);
    for (unsigned banks : {1u, 2u, 4u}) {
        EventQueue eq;
        ClockDomain cpu("cpu", 5000);
        Scratchpad spad(eq, cpu, 8, 4096, banks);
        std::vector<std::uint32_t> oracle(64, 0);

        eq.schedule(0, [&] {
            for (int i = 0; i < 1000; ++i) {
                std::size_t word = rng.below(64);
                unsigned bit = static_cast<unsigned>(rng.below(32));
                unsigned req = static_cast<unsigned>(rng.below(8));
                oracle[word] |= (1u << bit);
                spad.access(req, static_cast<Addr>(4 * word),
                            SpadOp::AtomicSet, bit, nullptr);
            }
        });
        eq.run();
        for (std::size_t w = 0; w < 64; ++w)
            ASSERT_EQ(spad.storage().loadWord(static_cast<Addr>(4 * w)),
                      oracle[w])
                << "banks=" << banks << " word=" << w;
    }
}

TEST(ScratchpadRandom, UpdateAccountsForEverySetBitExactlyOnce)
{
    // Property: repeatedly AtomicSet sequential bits and AtomicUpdate
    // from a software commit pointer; every set bit is eventually
    // cleared by exactly one update, and the commit pointer advances
    // monotonically to the total count.
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);
    Scratchpad spad(eq, cpu, 4, 4096, 2);
    Rng rng(777);

    constexpr unsigned totalBits = 256; // 8 words
    const Addr base = 0x200;
    unsigned nextToSet = 0;
    unsigned committed = 0;

    std::function<void()> pump = [&] {
        bool did = false;
        // Randomly interleave producer (set) and consumer (update).
        if (nextToSet < totalBits && (committed == nextToSet ||
                                      rng.chance(0.6))) {
            unsigned bit = nextToSet++;
            spad.access(0, base + 4 * (bit / 32), SpadOp::AtomicSet,
                        bit % 32,
                        [&](const Scratchpad::Response &) { pump(); });
            did = true;
        } else if (committed < nextToSet) {
            spad.access(1, base + 4 * (committed / 32),
                        SpadOp::AtomicUpdate, committed % 32,
                        [&](const Scratchpad::Response &r) {
                            committed += r.data;
                            pump();
                        });
            did = true;
        }
        if (!did && committed < totalBits)
            eq.scheduleIn(5000, pump);
    };
    eq.schedule(0, pump);
    eq.run();
    EXPECT_EQ(committed, totalBits);
    for (unsigned w = 0; w < totalBits / 32; ++w)
        EXPECT_EQ(spad.storage().loadWord(base + 4 * w), 0u);
}
