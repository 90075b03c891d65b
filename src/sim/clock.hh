/**
 * @file
 * Clock-domain helpers.
 *
 * The NIC in the paper (Fig. 6) has four clock domains: the CPU cores +
 * scratchpads + crossbar, the 500 MHz memory bus + GDDR SDRAM, the MAC /
 * Ethernet timing, and the (untimed) PCI side.  A ClockDomain converts
 * between cycles and global ticks and computes edge alignment so that
 * cross-domain hand-offs land on real clock edges.
 */

#ifndef TENGIG_SIM_CLOCK_HH
#define TENGIG_SIM_CLOCK_HH

#include <string>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tengig {

/**
 * A named clock with a fixed period, phase-aligned to tick 0.
 */
class ClockDomain
{
  public:
    /**
     * @param name Human-readable domain name ("cpu", "membus", ...).
     * @param period Clock period in ticks; must be > 0.
     */
    ClockDomain(std::string name, Tick period)
        : _name(std::move(name)), _period(period)
    {
        fatal_if(period == 0, "clock domain '", _name, "' with zero period");
    }

    const std::string &name() const { return _name; }
    Tick period() const { return _period; }
    double frequencyMhz() const { return mhzFromPeriod(_period); }

    /** Tick of the n-th rising edge. */
    Tick edge(Cycles n) const { return n * _period; }

    /** Cycle index of the most recent edge at or before @p t. */
    Cycles cycleAt(Tick t) const { return t / _period; }

    /**
     * First edge at or after @p t (a request arriving mid-cycle is
     * sampled on the next edge).
     */
    Tick
    nextEdgeAtOrAfter(Tick t) const
    {
        return (t + _period - 1) / _period * _period;
    }

    /** First edge strictly after @p t. */
    Tick
    nextEdgeAfter(Tick t) const
    {
        return (t / _period + 1) * _period;
    }

    /** Convert a cycle count to a duration in ticks. */
    Tick cyclesToTicks(Cycles c) const { return c * _period; }

    /** Duration @p d rounded up to whole cycles. */
    Cycles
    ticksToCycles(Tick d) const
    {
        return (d + _period - 1) / _period;
    }

  private:
    std::string _name;
    Tick _period;
};

/**
 * Base class for components driven by a clock domain, with convenience
 * scheduling helpers expressed in cycles.
 */
class Clocked
{
  public:
    Clocked(EventQueue &eq, const ClockDomain &domain)
        : _eq(eq), _domain(domain)
    {}

    EventQueue &eventQueue() const { return _eq; }
    const ClockDomain &clockDomain() const { return _domain; }
    Tick curTick() const { return _eq.curTick(); }

    /** Current cycle in this component's domain. */
    Cycles curCycle() const { return _domain.cycleAt(_eq.curTick()); }

    /** Attached timeline recorder, or nullptr when tracing is off. */
    obs::TraceLog *traceLog() const { return _eq.traceLog(); }

    /**
     * Schedule @p fn @p cycles edges after the next edge at-or-after now.
     * scheduleCycles(0, fn) fires at the next edge (or immediately if now
     * is exactly on an edge).
     */
    template <typename F>
    EventId
    scheduleCycles(Cycles cycles, F &&fn,
                   EventPriority prio = EventPriority::Default)
    {
        Tick base = _domain.nextEdgeAtOrAfter(_eq.curTick());
        return _eq.schedule(base + _domain.cyclesToTicks(cycles),
                            std::forward<F>(fn), prio);
    }

  private:
    EventQueue &_eq;
    const ClockDomain &_domain;
};

/**
 * A persistent, cancellable timer: the firmware watchdog, the doorbell
 * retry, the vnic refill and the occupancy sampler.
 *
 * The callback is built once, at init(); every arm schedules only an
 * 8-byte trampoline, and the kept handle makes cancel() exact.  The
 * handle clears before the callback runs, so the callback may re-arm
 * itself.  Components that never cancel (the cores' replay loop)
 * schedule through Clocked::scheduleCycles instead.
 */
class RecurringEvent
{
  public:
    RecurringEvent() = default;
    RecurringEvent(const RecurringEvent &) = delete;
    RecurringEvent &operator=(const RecurringEvent &) = delete;
    ~RecurringEvent() { cancel(); }

    /** Bind the queue, callback, and tie-break priority (once).  The
     *  callable is built straight into the event, as by schedule(). */
    template <typename F>
    void
    init(EventQueue &eq, F &&fn, EventPriority prio = EventPriority::Default)
    {
        panic_if(_eq, "recurring event initialised twice");
        _fn.assign(std::forward<F>(fn));
        panic_if(!_fn, "recurring event with null callback");
        _eq = &eq;
        _prio = prio;
    }

    bool scheduled() const { return _id != invalidEventId; }

    /** Arm at absolute tick @p when; the event must not be armed. */
    void
    scheduleAt(Tick when)
    {
        panic_if(!_eq, "recurring event armed before init");
        panic_if(scheduled(), "recurring event armed twice");
        _id = _eq->schedule(when, [this] { fire(); }, _prio);
    }

    /** Arm @p delta ticks from now. */
    void scheduleIn(Tick delta) { scheduleAt(_eq->curTick() + delta); }

    /** Disarm. @retval false if the event was not armed. */
    bool
    cancel()
    {
        if (!scheduled())
            return false;
        EventId id = _id;
        _id = invalidEventId;
        return _eq->cancel(id);
    }

  private:
    void
    fire()
    {
        _id = invalidEventId;
        _fn();
    }

    EventQueue *_eq = nullptr;
    EventQueue::Callback _fn;
    EventPriority _prio = EventPriority::Default;
    EventId _id = invalidEventId;
};

} // namespace tengig

#endif // TENGIG_SIM_CLOCK_HH
