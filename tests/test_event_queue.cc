/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
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
    // The refused callback holds no slot: the next event gets slot 0
    // (an EventId is (slot + 1) << 32 | generation) and fires.
    EXPECT_EQ(eq.pendingEvents(), 0u);
    bool ran = false;
    EventId id = eq.schedule(1, [&] { ran = true; });
    EXPECT_EQ(id >> 32, 1u);
    eq.run();
    EXPECT_TRUE(ran);
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

    // A firing event is already retired: cancelling its own id fails.
    EventId self = invalidEventId;
    bool cancelled = true;
    self = eq.schedule(20, [&] { cancelled = eq.cancel(self); });
    eq.run();
    EXPECT_FALSE(cancelled);
    EXPECT_TRUE(eq.empty());
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

    // A callback runs in its slot.  This one schedules enough events to
    // grow the slot table many times over while it runs, then reads and
    // writes its own inline capture: if the slot had moved, that would
    // be a use after free.
    constexpr std::size_t burst = 1000;
    std::size_t fired = 0;
    std::uint64_t sum = 0;
    eq.schedule(50, [&eq, &fired, &sum,
                     words = std::array<std::uint64_t, 4>{1, 2, 3, 4}]()
                        mutable {
        for (std::size_t i = 0; i < burst; ++i)
            eq.schedule(60, [&fired] { ++fired; });
        for (std::uint64_t &w : words)
            w *= 10;
        for (std::uint64_t w : words)
            sum += w;
    });
    eq.run();
    EXPECT_EQ(sum, 100u);
    EXPECT_EQ(fired, burst);
    EXPECT_TRUE(eq.empty());
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
    // Cancelled entries still sit in the pending list until they
    // surface, but they are invisible to the live count.
    EXPECT_EQ(eq.pendingEvents(), 5u);
    eq.run();
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelStressStaysCorrect)
{
    // Schedule/cancel churn that leaves far more tombstones than live
    // entries: dead entries must never fire, live ones must all fire
    // in order, and the queue must end drained.
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
        // ratios.
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

TEST(EventQueue, RandomizedOrderMatchesReferenceSort)
{
    // The full firing order, not just its ticks: events fire exactly as
    // a stable sort by (when, priority) in scheduling order.  Ticks
    // straddle 2^40, so whole-tick order is decided above any 32-bit
    // field; every priority takes part; and callbacks add follow-ups at
    // their own tick (never ahead of themselves) and at later ticks, so
    // work scheduled while the queue runs is ordered too.
    constexpr std::array<EventPriority, 4> prios = {
        EventPriority::HardwareProgress, EventPriority::Default,
        EventPriority::Cpu, EventPriority::Stats};
    constexpr std::array<Tick, 3> bases = {0, (Tick{1} << 40) - 8,
                                           Tick{3} << 39};
    struct Scheduled
    {
        Tick when;
        int prio;
        bool cancelled;
    };
    Rng rng(2024);
    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        std::vector<Scheduled> scheduled; // in scheduling order
        std::vector<EventId> ids;
        std::vector<std::size_t> fired;
        std::function<void(Tick, std::size_t)> add = [&](Tick when,
                                                         std::size_t p) {
            std::size_t n = scheduled.size();
            scheduled.push_back({when, static_cast<int>(prios[p]), false});
            ids.push_back(eq.schedule(
                when,
                [&, n, when, p] {
                    fired.push_back(n);
                    if (scheduled.size() >= 2000)
                        return;
                    switch (rng.below(4)) {
                    case 0:
                        add(when, p + rng.below(prios.size() - p));
                        break;
                    case 1:
                        add(when + 1 + rng.below(16),
                            rng.below(prios.size()));
                        break;
                    default:
                        break;
                    }
                },
                prios[p]));
        };
        for (int i = 0; i < 300; ++i)
            add(bases[rng.below(bases.size())] + rng.below(16),
                rng.below(prios.size()));
        for (int i = 0; i < 30; ++i) {
            std::size_t victim = rng.below(ids.size());
            if (eq.cancel(ids[victim]))
                scheduled[victim].cancelled = true;
        }
        eq.run();

        std::vector<std::size_t> expected;
        for (std::size_t n = 0; n < scheduled.size(); ++n)
            if (!scheduled[n].cancelled)
                expected.push_back(n);
        std::stable_sort(expected.begin(), expected.end(),
                         [&](std::size_t a, std::size_t b) {
                             const Scheduled &x = scheduled[a];
                             const Scheduled &y = scheduled[b];
                             return x.when != y.when ? x.when < y.when
                                                     : x.prio < y.prio;
                         });
        ASSERT_GT(scheduled.size(), 300u);
        ASSERT_EQ(fired, expected) << "round " << round;
        EXPECT_TRUE(eq.empty());
    }
}

TEST(EventQueue, CallbacksAreDestroyedExactlyOnce)
{
    // Every capture is destroyed exactly once, whether its event fires,
    // is cancelled, throws, or is still pending when the queue is
    // destroyed.  Each fate meets a move-only capture that fits
    // SmallFn's inline buffer and one that spills to the heap, passed
    // as a lambda and as a prebuilt Callback.
    struct Probe
    {
        Probe(std::vector<int> &counts, std::size_t id)
            : destroyed(counts), id(id)
        {
        }
        ~Probe() { ++destroyed[id]; }
        std::vector<int> &destroyed;
        std::size_t id;
    };
    constexpr std::size_t n = 16;
    std::vector<int> destroyed(n, 0);
    std::vector<int> ran(n, 0);
    // Fates by i / 4: fire at tick 10, cancel, left pending, and throw
    // at tick 5.
    auto body = [&ran](std::size_t i) {
        ++ran[i];
        if (i / 4 == 3)
            fatal("event ", i, " failed");
    };
    auto small = [&](std::size_t i) {
        return [body, probe = std::make_unique<Probe>(destroyed, i)] {
            body(probe->id);
        };
    };
    auto large = [&](std::size_t i) {
        return [body, probe = std::make_unique<Probe>(destroyed, i),
                pad = std::array<std::uint64_t, 8>{}] {
            body(probe->id + pad[0]);
        };
    };
    static_assert(sizeof(decltype(large(0))) > 64);
    {
        EventQueue eq;
        std::vector<EventId> ids;
        for (std::size_t i = 0; i < n; ++i) {
            Tick when = i / 4 == 2 ? 1000 : i / 4 == 3 ? 5 : 10;
            switch (i % 4) {
            case 0:
                ids.push_back(eq.schedule(when, small(i)));
                break;
            case 1:
                ids.push_back(eq.schedule(when, large(i)));
                break;
            case 2:
                ids.push_back(
                    eq.schedule(when, EventQueue::Callback(small(i))));
                break;
            default:
                ids.push_back(
                    eq.schedule(when, EventQueue::Callback(large(i))));
                break;
            }
        }
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(destroyed[i], 0) << i;
        for (std::size_t i = 4; i < 8; ++i) {
            EXPECT_TRUE(eq.cancel(ids[i]));
            EXPECT_EQ(destroyed[i], 1) << i;
        }
        // Each run stops at the next throwing event, which is destroyed
        // by then; the count of live events stays exact.
        for (std::size_t i = 12; i < n; ++i) {
            EXPECT_THROW(eq.runUntil(100), FatalError) << i;
            EXPECT_EQ(ran[i], 1) << i;
            EXPECT_EQ(destroyed[i], 1) << i;
            EXPECT_EQ(eq.pendingEvents(), n - 1 - i + 8) << i;
        }
        // The queue then runs the remaining events as usual.
        eq.runUntil(100);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(ran[i], i < 4 || i >= 12 ? 1 : 0) << i;
            EXPECT_EQ(destroyed[i], i / 4 == 2 ? 0 : 1) << i;
        }
        EXPECT_EQ(eq.pendingEvents(), 4u);
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(destroyed[i], 1) << i;
}
