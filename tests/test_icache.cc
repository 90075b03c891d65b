/**
 * @file
 * Unit tests for the per-core instruction cache and the shared
 * instruction memory port.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/icache.hh"
#include "sim/random.hh"

using namespace tengig;

namespace {

struct ICacheFixture : public ::testing::Test
{
    ICacheFixture()
        : cpu("cpu", 5000), imem(cpu, /*access_cycles=*/2),
          cache(imem, 8 * 1024, 2, 32)
    {}

    ClockDomain cpu;
    InstructionMemory imem;
    ICache cache;
};

} // namespace

TEST_F(ICacheFixture, ColdMissThenHit)
{
    Tick stall = cache.lookup(0x1000, 0);
    EXPECT_GT(stall, 0u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.lookup(0x1000, stall), 0u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(ICacheFixture, SameLineDifferentWordHits)
{
    cache.lookup(0x1000, 0);
    EXPECT_EQ(cache.lookup(0x101c, 100000), 0u); // same 32B line
    EXPECT_EQ(cache.lookup(0x1020, 100000) > 0, true); // next line
}

TEST_F(ICacheFixture, MissLatencyIsAccessPlusBeats)
{
    // 2-cycle access + 2 beats (32B / 16B) = 4 cycles = 20000 ticks.
    Tick stall = cache.lookup(0x0, 0);
    EXPECT_EQ(stall, 4 * 5000u);
}

TEST_F(ICacheFixture, TwoWaysHoldConflictingLines)
{
    // 8KB, 2-way, 32B lines -> 128 sets -> set stride is 4096 bytes.
    cache.lookup(0x0000, 0);
    cache.lookup(0x1000, 0); // same set, second way
    EXPECT_TRUE(cache.probe(0x0000));
    EXPECT_TRUE(cache.probe(0x1000));
    EXPECT_EQ(cache.lookup(0x0000, 100000), 0u);
    EXPECT_EQ(cache.lookup(0x1000, 100000), 0u);
}

TEST_F(ICacheFixture, LruEvictsLeastRecentlyUsed)
{
    cache.lookup(0x0000, 0); // way A
    cache.lookup(0x1000, 0); // way B
    cache.lookup(0x0000, 0); // touch A
    cache.lookup(0x2000, 0); // same set; evicts B (LRU)
    EXPECT_TRUE(cache.probe(0x0000));
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_TRUE(cache.probe(0x2000));
}

TEST_F(ICacheFixture, FlushInvalidatesEverything)
{
    cache.lookup(0x0, 0);
    cache.lookup(0x40, 0);
    cache.flush();
    EXPECT_FALSE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(0x40));
}

TEST_F(ICacheFixture, SharedPortSerializesFills)
{
    // Two caches filling at the same instant: the second fill waits for
    // the first to release the port.
    ICache other(imem, 8 * 1024, 2, 32);
    Tick s1 = cache.lookup(0x0, 0);
    Tick s2 = other.lookup(0x4000, 0);
    EXPECT_EQ(s1, 4 * 5000u);
    EXPECT_EQ(s2, 8 * 5000u); // queued behind the first fill
}

TEST_F(ICacheFixture, PortStatsAndBandwidth)
{
    cache.lookup(0x0, 0);
    cache.lookup(0x40, 0);
    EXPECT_EQ(imem.fillCount(), 2u);
    EXPECT_EQ(imem.bytesTransferred(), 64u);
    // Peak: 16B/cycle @200MHz = 25.6 Gb/s.
    EXPECT_NEAR(imem.peakBandwidthGbps(), 25.6, 1e-9);
    // 64B over 1 us = 0.512 Gb/s.
    EXPECT_NEAR(imem.consumedBandwidthGbps(1000000), 0.512, 1e-9);
    EXPECT_GT(imem.utilization(1000000), 0.0);
    EXPECT_LT(imem.utilization(1000000), 0.1);
}

TEST_F(ICacheFixture, MissRatioComputation)
{
    cache.lookup(0x0, 0);           // miss
    for (int i = 0; i < 9; ++i)
        cache.lookup(0x0, 0);       // hits
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.1);
    cache.resetStats();
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.0);
}

TEST(ICacheConfig, RejectsBadGeometry)
{
    ClockDomain cpu("cpu", 5000);
    InstructionMemory imem(cpu);
    EXPECT_THROW(ICache(imem, 8 * 1024, 2, 33), FatalError);
    EXPECT_THROW(ICache(imem, 8 * 1024, 0, 32), FatalError);
    EXPECT_THROW(ICache(imem, 8 * 1024, 3, 32), FatalError);
}

TEST(ICacheSweep, CapacityReducesMissesOnLoopingFootprint)
{
    // A looping footprint larger than a small cache but smaller than a
    // big one: the big cache converges to zero steady-state misses.
    ClockDomain cpu("cpu", 5000);
    InstructionMemory imem(cpu);
    ICache small(imem, 1 * 1024, 2, 32);
    ICache big(imem, 16 * 1024, 2, 32);

    auto run = [](ICache &c) {
        c.resetStats();
        for (int iter = 0; iter < 10; ++iter)
            for (Addr pc = 0; pc < 4 * 1024; pc += 4)
                c.lookup(pc, 0);
        return c.missRatio();
    };
    double small_ratio = run(small);
    double big_ratio = run(big);
    EXPECT_GT(small_ratio, big_ratio);
    EXPECT_LT(big_ratio, 0.02);
}

namespace {

/**
 * True-LRU set-associative cache kept the plain way: each set is a list
 * of tags, most recent first, and every lookup walks it.  No memo.
 */
class ReferenceICache
{
  public:
    ReferenceICache(InstructionMemory &imem, std::size_t capacity,
                    unsigned assoc, unsigned line_size)
        : imem(imem), lineBytes(line_size), ways(assoc),
          sets(capacity / line_size / assoc)
    {}

    Tick
    lookup(Addr pc, Tick now)
    {
        Addr line_addr = pc / lineBytes;
        std::vector<Addr> &set = sets[line_addr % sets.size()];
        Addr tag = line_addr / sets.size();
        auto it = std::find(set.begin(), set.end(), tag);
        if (it != set.end()) {
            set.erase(it);
            set.insert(set.begin(), tag);
            ++hits;
            return 0;
        }
        ++misses;
        if (set.size() == ways)
            set.pop_back();
        set.insert(set.begin(), tag);
        Tick done = imem.fill(now, lineBytes);
        return done > now ? done - now : 0;
    }

    void
    flush()
    {
        for (auto &set : sets)
            set.clear();
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    InstructionMemory &imem;
    unsigned lineBytes;
    unsigned ways;
    std::vector<std::vector<Addr>> sets;
};

} // namespace

TEST(ICacheProperty, MemoMatchesTrueLruReference)
{
    // Seeded PC streams rich in what the last-line memo must get right:
    // repeats inside the line looked up last, lines that conflict with
    // it in its set, and a flush() mid-stream after which the memo must
    // not hit.  Each cache has its own instruction memory, so every
    // stall, hit, miss, fill and port-busy tick must agree.
    struct Geometry
    {
        std::size_t capacity;
        unsigned assoc;
        unsigned line;
    };
    const Geometry geometries[] = {
        {8 * 1024, 2, 32}, {1024, 4, 16}, {256, 1, 32}, {512, 2, 64}};
    ClockDomain cpu("cpu", 5000);
    for (const Geometry &g : geometries) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            InstructionMemory imem(cpu), ref_imem(cpu);
            ICache cache(imem, g.capacity, g.assoc, g.line);
            ReferenceICache ref(ref_imem, g.capacity, g.assoc, g.line);
            Rng rng(seed);
            const Addr set_stride = g.capacity / g.assoc;
            constexpr int lookups = 4000;
            Addr pc = 0;
            Tick now = 0;
            for (int i = 0; i < lookups; ++i) {
                if (i == lookups / 2 || rng.below(500) == 0) {
                    cache.flush();
                    ref.flush();
                }
                switch (rng.below(4)) {
                case 0:
                case 1: // same line as the last lookup
                    pc = pc / g.line * g.line + rng.below(g.line);
                    break;
                case 2: // same set, another tag
                    pc += set_stride * (1 + rng.below(g.assoc + 1));
                    break;
                default: // anywhere in a footprint of a few caches
                    pc = rng.below(4 * g.capacity);
                    break;
                }
                pc %= 8 * g.capacity;
                Tick stall = cache.lookup(pc, now);
                ASSERT_EQ(stall, ref.lookup(pc, now))
                    << "geometry " << g.capacity << "/" << g.assoc << "/"
                    << g.line << " seed " << seed << " lookup " << i
                    << " pc " << pc;
                now += stall + cpu.period() * rng.below(3);
            }
            EXPECT_EQ(cache.hits(), ref.hits);
            EXPECT_EQ(cache.misses(), ref.misses);
            EXPECT_GT(ref.hits, ref.misses);
            EXPECT_EQ(imem.fillCount(), ref_imem.fillCount());
            EXPECT_EQ(imem.bytesTransferred(), ref_imem.bytesTransferred());
            // Busy ticks over the same span: equal ratios of integers.
            EXPECT_EQ(imem.utilization(now + 1),
                      ref_imem.utilization(now + 1));
        }
    }
}
