/**
 * @file
 * Discrete-event simulation core.
 *
 * The EventQueue orders callbacks by (tick, priority, insertion sequence).
 * All modeled hardware (clocked components, link timing, DMA completions)
 * schedules through a single queue so that multi-clock-domain interactions
 * are globally ordered, mirroring the Liberty/Spinach execution model the
 * paper's simulator was built on.
 *
 * Internals (see DESIGN.md §10): the pending list holds 24-byte POD
 * entries only, kept sorted latest-first so the soonest event is at the
 * back -- firing is a pop_back, and insertion scans from the back,
 * shifting each entry that fires before the new one a place toward the
 * back, since almost every event is scheduled within a few cycles of
 * now: an insertion passes 2-3 entries on average.  Each entry packs
 * (tick, priority, sequence) into one 128-bit key, so a scan step is a
 * single compare.  The list holds a few to a few dozen entries (about
 * 71 on average with 64 IMIX flows each way), so an ordered array
 * beats a binary heap's sift traffic.  Callbacks are built straight
 * into a recycled slot table addressed by the entry, so insertion
 * shuffles PODs, never closures.  The table is a std::deque, whose
 * emplace_back never moves an existing slot, so firing invokes each
 * callback where schedule() built it and then resets the slot: a
 * callback is never moved at all.  EventIds carry the slot's generation
 * counter, making cancellation an O(1) tag compare with no hash set.
 */

#ifndef TENGIG_SIM_EVENT_QUEUE_HH
#define TENGIG_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace tengig {

namespace obs { class TraceLog; }

/**
 * Opaque handle used to cancel a scheduled event.  Encodes
 * (slot index + 1) << 32 | slot generation, so stale handles -- and
 * arbitrary garbage values -- fail the generation compare instead of
 * cancelling an unrelated event.
 */
using EventId = std::uint64_t;

/** Invalid/empty event handle. */
constexpr EventId invalidEventId = 0;

/**
 * Priorities break ties between events scheduled at the same tick.
 * Lower values run first.  Each must fit in [-128, 127]: the pending
 * list packs it into 8 bits of its order key (event_queue.cc asserts
 * every enumerator).
 */
enum class EventPriority : int
{
    HardwareProgress = -2, //!< assist progress-pointer updates
    Default = 0,
    Cpu = 1,               //!< core activity runs after hardware at a tick
    Stats = 100,           //!< sampling runs after everything else
};

/**
 * A time-ordered queue of callbacks with cancellation support.
 */
class EventQueue
{
  public:
    /**
     * Callback type: 64 inline bytes cover every closure the model
     * schedules (the largest are scratchpad responses and MAC wire
     * completions), so steady-state scheduling never allocates.
     */
    using Callback = SmallFn<void(), 64>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule a callback.
     *
     * @param when Absolute tick; must be >= curTick().
     * @param fn Callable invoked when the event fires, built straight
     *        into its slot (a Callback is moved there).
     * @param prio Tie-break priority at equal tick.
     * @return Handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn, EventPriority prio = EventPriority::Default)
    {
        panic_if(when < _curTick,
                 "scheduling event in the past: when=", when,
                 " cur=", _curTick);
        Slot &s = acquireSlot();
        s.fn.assign(std::forward<F>(fn));
        if (!s.fn) {
            releaseSlot(s);
            panic("scheduling null event callback");
        }
        return enqueue(when, prio, s);
    }

    /** Schedule relative to now. */
    template <typename F>
    EventId
    scheduleIn(Tick delta, F &&fn,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(_curTick + delta, std::forward<F>(fn), prio);
    }

    /**
     * Cancel a previously scheduled event.
     *
     * @retval true The event existed and will not fire.
     * @retval false The event had already fired or been cancelled, or
     *         the handle never named an event at all.
     */
    bool cancel(EventId id);

    /** @return true if no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Number of live (scheduled, not cancelled) events. */
    std::size_t pendingEvents() const { return liveCount; }

    /**
     * Run until the queue drains or @p limit is reached.
     * @return Tick of the last event processed.
     */
    Tick run(Tick limit = maxTick);

    /** Fire events up to and including tick @p until. */
    Tick runUntil(Tick until);

    /** Total number of events ever executed (for perf benchmarks). */
    std::uint64_t executedEvents() const { return executed; }

    /// @name Opt-in timeline tracing
    /// Components reached through this queue emit Chrome trace-event
    /// spans when a recorder is attached (src/obs/trace_log.hh); the
    /// null default makes tracing a single-pointer check on hot paths.
    /// @{
    void attachTraceLog(obs::TraceLog *log) { _trace = log; }
    obs::TraceLog *traceLog() const { return _trace; }
    /// @}

  private:
    /** Out-of-line callback storage, recycled through a free list. */
    struct Slot
    {
        Callback fn;
        Slot *nextFree = nullptr;     //!< free-list link
        std::uint32_t index = 0;      //!< place in the table
        std::uint32_t generation = 0;
        bool alive = false;
    };

    /**
     * Pending-list node: 24 trivially-copyable bytes.  The callback
     * stays in the slot table so insertion shuffles PODs, not closures;
     * slots never move, so the entry points at its slot.  `order` packs
     * the tie-breaks as (prio + 128) << 56 | seq, so (when, order) read
     * as one 128-bit number is (when, prio, seq) order; seq preserves
     * insertion order among equal (when, prio) pairs.
     */
    struct PendingEntry
    {
        Tick when;
        std::uint64_t order;
        Slot *slot;
    };
    static_assert(sizeof(PendingEntry) == 24);

    /** @return true if @p a fires after @p b: one 128-bit compare. */
    static bool
    laterThan(const PendingEntry &a, const PendingEntry &b)
    {
        using Key = unsigned __int128;
        return (Key{a.when} << 64 | a.order) > (Key{b.when} << 64 | b.order);
    }

    Slot &acquireSlot();
    /** Put @p s on the free list; never allocates. */
    void
    releaseSlot(Slot &s)
    {
        s.nextFree = freeHead;
        freeHead = &s;
    }
    /** Mark @p s live and insert its pending entry. */
    EventId enqueue(Tick when, EventPriority prio, Slot &s);

    /** Sorted latest-first: the soonest-firing entry is at the back. */
    std::vector<PendingEntry> pending;
    /** The slot table: emplace_back never moves an existing slot. */
    std::deque<Slot> slots;
    Slot *freeHead = nullptr; //!< first free slot, null: none
    std::size_t liveCount = 0;
    Tick _curTick = 0;
    std::uint64_t nextSeq = 1;
    std::uint64_t executed = 0;
    obs::TraceLog *_trace = nullptr;
};

} // namespace tengig

#endif // TENGIG_SIM_EVENT_QUEUE_HH
