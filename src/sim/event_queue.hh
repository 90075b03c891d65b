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
 * Internals (see DESIGN.md §10): the pending list holds small POD
 * entries only, kept sorted latest-first so the soonest event is at the
 * back -- firing is a pop_back and insertion is a short scan from the
 * back, since almost every event is scheduled within a cycle or two of
 * now.  (The live population is tiny -- single digits in steady state --
 * so an ordered array beats a binary heap's sift traffic.)  Callbacks
 * live out-of-line in a recycled slot table addressed by the entry, so
 * insertion shuffles PODs, never closures, and firing moves the
 * callback out exactly once.  EventIds carry the slot's generation
 * counter, making cancellation an O(1) tag compare with no hash set.
 */

#ifndef TENGIG_SIM_EVENT_QUEUE_HH
#define TENGIG_SIM_EVENT_QUEUE_HH

#include <cstdint>
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
 * Lower values run first.
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
     * @param fn Callback invoked when the event fires.
     * @param prio Tie-break priority at equal tick.
     * @return Handle usable with cancel().
     */
    EventId schedule(Tick when, Callback fn,
                     EventPriority prio = EventPriority::Default);

    /** Schedule relative to now. */
    EventId
    scheduleIn(Tick delta, Callback fn,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(_curTick + delta, std::move(fn), prio);
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
    /**
     * Pending-list node: 24 trivially-copyable bytes.  The callback
     * stays in the slot table so insertion shuffles PODs, not closures.
     * seq preserves insertion order among equal (when, prio) pairs.
     */
    struct PendingEntry
    {
        Tick when;
        std::int32_t prio;
        std::uint32_t slot;
        std::uint64_t seq;
    };

    /** Out-of-line callback storage, recycled through a free list. */
    struct Slot
    {
        Callback fn;
        std::uint32_t generation = 0;
        bool alive = false;
    };

    /** @return true if @p a fires after @p b. */
    static bool
    laterThan(const PendingEntry &a, const PendingEntry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.seq > b.seq;
    }

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t idx);
    void compact();

    /** Sorted latest-first: the soonest-firing entry is at the back. */
    std::vector<PendingEntry> pending;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    std::size_t liveCount = 0;
    std::size_t deadInList = 0;
    Tick _curTick = 0;
    std::uint64_t nextSeq = 1;
    std::uint64_t executed = 0;
    obs::TraceLog *_trace = nullptr;
};

} // namespace tengig

#endif // TENGIG_SIM_EVENT_QUEUE_HH
