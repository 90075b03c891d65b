/**
 * @file
 * Unit tests for clock domains and clocked scheduling.
 */

#include <gtest/gtest.h>

#include "sim/clock.hh"

using namespace tengig;

TEST(ClockDomain, PeriodFromMhz)
{
    EXPECT_EQ(periodFromMhz(200.0), 5000u);
    EXPECT_EQ(periodFromMhz(500.0), 2000u);
    EXPECT_EQ(periodFromMhz(100.0), 10000u);
    // 166.67 MHz rounds to a 6000 ps period.
    EXPECT_EQ(periodFromMhz(1e6 / 6000.0), 6000u);
}

TEST(ClockDomain, EdgeMath)
{
    ClockDomain cpu("cpu", 5000);
    EXPECT_EQ(cpu.edge(0), 0u);
    EXPECT_EQ(cpu.edge(3), 15000u);
    EXPECT_EQ(cpu.cycleAt(0), 0u);
    EXPECT_EQ(cpu.cycleAt(4999), 0u);
    EXPECT_EQ(cpu.cycleAt(5000), 1u);
    EXPECT_EQ(cpu.nextEdgeAtOrAfter(0), 0u);
    EXPECT_EQ(cpu.nextEdgeAtOrAfter(1), 5000u);
    EXPECT_EQ(cpu.nextEdgeAtOrAfter(5000), 5000u);
    EXPECT_EQ(cpu.nextEdgeAfter(5000), 10000u);
    EXPECT_EQ(cpu.nextEdgeAfter(4999), 5000u);
}

TEST(ClockDomain, CycleTickConversion)
{
    ClockDomain mem("membus", 2000);
    EXPECT_EQ(mem.cyclesToTicks(10), 20000u);
    EXPECT_EQ(mem.ticksToCycles(20000), 10u);
    EXPECT_EQ(mem.ticksToCycles(20001), 11u); // rounds up
    EXPECT_DOUBLE_EQ(mem.frequencyMhz(), 500.0);
}

TEST(ClockDomain, ZeroPeriodIsFatal)
{
    EXPECT_THROW(ClockDomain("bad", 0), FatalError);
}

// Edge arithmetic at exact boundaries: one tick either side of an
// edge, tick 0, and the degenerate period-1 domain where every tick
// is an edge.
TEST(ClockDomain, EdgeBoundaries)
{
    ClockDomain cpu("cpu", 5000);
    EXPECT_EQ(cpu.nextEdgeAtOrAfter(4999), 5000u);
    EXPECT_EQ(cpu.nextEdgeAtOrAfter(5001), 10000u);
    EXPECT_EQ(cpu.nextEdgeAtOrAfter(9999), 10000u);
    EXPECT_EQ(cpu.nextEdgeAtOrAfter(10000), 10000u);
    EXPECT_EQ(cpu.nextEdgeAfter(0), 5000u);

    ClockDomain unit("unit", 1);
    EXPECT_EQ(unit.nextEdgeAtOrAfter(0), 0u);
    EXPECT_EQ(unit.nextEdgeAtOrAfter(7), 7u);
    EXPECT_EQ(unit.nextEdgeAfter(7), 8u);
    EXPECT_EQ(unit.cycleAt(7), 7u);
}

TEST(ClockDomain, TicksToCyclesBoundaries)
{
    ClockDomain mem("membus", 2000);
    // Round-up semantics: 0 ticks is 0 cycles; 1 tick already needs a
    // full cycle; an exact multiple must NOT round up an extra cycle.
    EXPECT_EQ(mem.ticksToCycles(0), 0u);
    EXPECT_EQ(mem.ticksToCycles(1), 1u);
    EXPECT_EQ(mem.ticksToCycles(1999), 1u);
    EXPECT_EQ(mem.ticksToCycles(2000), 1u);
    EXPECT_EQ(mem.ticksToCycles(2001), 2u);
    EXPECT_EQ(mem.ticksToCycles(3999), 2u);
    EXPECT_EQ(mem.ticksToCycles(4000), 2u);
    // Round trip: cyclesToTicks(ticksToCycles(d)) >= d, tight when d
    // is a multiple of the period.
    for (Tick d : {1u, 1999u, 2000u, 2001u, 4000u, 4001u}) {
        EXPECT_GE(mem.cyclesToTicks(mem.ticksToCycles(d)), d);
    }
}

namespace {

class Probe : public Clocked
{
  public:
    using Clocked::Clocked;
    using Clocked::scheduleCycles;
};

} // namespace

TEST(Clocked, ScheduleCyclesAlignsToEdges)
{
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);
    Probe p(eq, cpu);

    // Offset the queue to mid-cycle, then make sure scheduling lands on
    // real edges.
    Tick fired = 0;
    eq.schedule(5200, [&] {
        p.scheduleCycles(2, [&] { fired = eq.curTick(); });
    });
    eq.run();
    // From 5200, the next edge is 10000; +2 cycles = 20000.
    EXPECT_EQ(fired, 20000u);
}

TEST(Clocked, ScheduleZeroCyclesOnEdgeFiresNow)
{
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);
    Probe p(eq, cpu);
    Tick fired = maxTick;
    eq.schedule(10000, [&] {
        p.scheduleCycles(0, [&] { fired = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(fired, 10000u);
}

TEST(Clocked, DomainsWithDifferentPeriodsInterleave)
{
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);    // 200 MHz
    ClockDomain bus("bus", 2000);    // 500 MHz
    Probe pc(eq, cpu), pb(eq, bus);

    std::vector<std::pair<char, Tick>> order;
    for (Cycles c = 1; c <= 2; ++c) {
        pc.scheduleCycles(c, [&eq, &order] {
            order.emplace_back('c', eq.curTick());
        });
        pb.scheduleCycles(c, [&eq, &order] {
            order.emplace_back('b', eq.curTick());
        });
    }
    eq.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], std::make_pair('b', Tick{2000}));
    EXPECT_EQ(order[1], std::make_pair('b', Tick{4000}));
    EXPECT_EQ(order[2], std::make_pair('c', Tick{5000}));
    EXPECT_EQ(order[3], std::make_pair('c', Tick{10000}));
}

TEST(RecurringEvent, RearmsFromOwnCallback)
{
    EventQueue eq;
    RecurringEvent ev;
    int fires = 0;
    ev.init(eq, [&] {
        ++fires;
        if (fires < 5)
            ev.scheduleIn(10); // handle is clear inside the callback
    });
    EXPECT_FALSE(ev.scheduled());
    ev.scheduleAt(10);
    EXPECT_TRUE(ev.scheduled());
    eq.run();
    EXPECT_EQ(fires, 5);
    EXPECT_FALSE(ev.scheduled());
    EXPECT_EQ(eq.curTick(), 50u);
}

TEST(RecurringEvent, CancelDisarms)
{
    EventQueue eq;
    RecurringEvent ev;
    int fires = 0;
    ev.init(eq, [&] { ++fires; });
    ev.scheduleAt(10);
    EXPECT_TRUE(ev.cancel());
    EXPECT_FALSE(ev.scheduled());
    EXPECT_FALSE(ev.cancel()); // already disarmed
    eq.run();
    EXPECT_EQ(fires, 0);

    // The event remains usable after a cancel.
    ev.scheduleAt(20);
    eq.run();
    EXPECT_EQ(fires, 1);
}

TEST(RecurringEvent, DoubleArmPanics)
{
    EventQueue eq;
    RecurringEvent ev;
    ev.init(eq, [] {});
    ev.scheduleAt(10);
    EXPECT_THROW(ev.scheduleAt(20), PanicError);
    ev.cancel();
}

TEST(RecurringEvent, ArmBeforeInitPanics)
{
    RecurringEvent ev;
    EXPECT_THROW(ev.scheduleAt(10), PanicError);
}

TEST(RecurringEvent, DoubleInitPanics)
{
    EventQueue eq;
    RecurringEvent ev;
    ev.init(eq, [] {});
    EXPECT_THROW(ev.init(eq, [] {}), PanicError);
}
