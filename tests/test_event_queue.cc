/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace tengig;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(eq.executedEvents(), 0u);
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Cpu);
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Cpu);
    eq.schedule(5, [&] { order.push_back(0); },
                EventPriority::HardwareProgress);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), PanicError);
}

TEST(EventQueue, NullCallbackPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(1, std::function<void()>()), PanicError);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(invalidEventId));
    EXPECT_FALSE(eq.cancel(12345));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(30, [&] { ++count; });
    eq.runUntil(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.curTick(), 20u);
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWithNoEvents)
{
    EventQueue eq;
    eq.runUntil(1000);
    EXPECT_EQ(eq.curTick(), 1000u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST(EventQueue, SameTickSelfScheduleRuns)
{
    EventQueue eq;
    bool inner = false;
    eq.schedule(10, [&] {
        eq.schedule(10, [&] { inner = true; });
    });
    eq.run();
    EXPECT_TRUE(inner);
}

TEST(EventQueue, ExecutedEventsCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 7u);
}

TEST(EventQueue, StaleIdAfterSlotReuseFailsCancel)
{
    // Cancelling releases the slot; the next schedule may reuse it with
    // a bumped generation.  The stale handle must not cancel (or even
    // touch) the new occupant.
    EventQueue eq;
    EventId old_id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.cancel(old_id));

    bool ran = false;
    EventId new_id = eq.schedule(10, [&] { ran = true; });
    EXPECT_FALSE(eq.cancel(old_id)); // stale generation
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(eq.cancel(new_id)); // already fired
}

TEST(EventQueue, StaleIdAfterFireFailsCancelOnReusedSlot)
{
    EventQueue eq;
    EventId first = eq.schedule(10, [] {});
    eq.run();

    bool ran = false;
    eq.schedule(20, [&] { ran = true; });
    EXPECT_FALSE(eq.cancel(first));
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, PendingEventsCountsLiveOnly)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(eq.schedule(static_cast<Tick>(100 + i), [] {}));
    EXPECT_EQ(eq.pendingEvents(), 10u);
    for (int i = 0; i < 10; i += 2)
        EXPECT_TRUE(eq.cancel(ids[static_cast<std::size_t>(i)]));
    // Cancelled entries may still sit in the heap awaiting compaction,
    // but they are invisible to the live count.
    EXPECT_EQ(eq.pendingEvents(), 5u);
    eq.run();
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelStressCompactsAndStaysCorrect)
{
    // Schedule/cancel churn far past the compaction threshold: dead
    // entries must never fire, live ones must all fire in order, and
    // the queue must end drained.
    Rng rng(7);
    EventQueue eq;
    std::vector<Tick> fired;
    std::size_t expected = 0;
    for (int round = 0; round < 200; ++round) {
        std::vector<EventId> ids;
        for (int i = 0; i < 64; ++i) {
            Tick t = eq.curTick() + 1 + rng.below(500);
            ids.push_back(eq.schedule(t, [&fired, t] {
                fired.push_back(t);
            }));
        }
        // Cancel most of this round's events, favoring heavy dead/live
        // ratios that force repeated compaction.
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (i % 8 != 0)
                EXPECT_TRUE(eq.cancel(ids[i]));
            else
                ++expected;
        }
        // Drain a little so time advances between rounds.
        eq.runUntil(eq.curTick() + 50);
    }
    eq.run();
    ASSERT_EQ(fired.size(), expected);
    for (std::size_t i = 1; i < fired.size(); ++i)
        ASSERT_LE(fired[i - 1], fired[i]);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(EventQueue, RandomizedOrderingProperty)
{
    // Property: regardless of insertion order and cancellations, events
    // fire in nondecreasing tick order and cancelled events never fire.
    Rng rng(42);
    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        std::vector<Tick> fired;
        std::vector<EventId> ids;
        for (int i = 0; i < 200; ++i) {
            Tick t = rng.below(1000);
            ids.push_back(eq.schedule(t, [&fired, t] {
                fired.push_back(t);
            }));
        }
        std::vector<EventId> dead;
        for (int i = 0; i < 50; ++i) {
            EventId victim = ids[rng.below(ids.size())];
            if (eq.cancel(victim))
                dead.push_back(victim);
        }
        eq.run();
        ASSERT_EQ(fired.size(), 200 - dead.size());
        for (std::size_t i = 1; i < fired.size(); ++i)
            ASSERT_LE(fired[i - 1], fired[i]);
    }
}
