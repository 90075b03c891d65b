/**
 * @file
 * Firmware stall watchdog and simulator liveness monitor.
 *
 * The firmware watchdog is the modeled hardware timer: every N cycles
 * it samples each core's last-retirement tick and, while the pipeline
 * has work outstanding, counts a stall (plus a one-per-episode
 * diagnostic dump) for any core that has not retired an invocation
 * since the previous sample.
 *
 * The liveness monitor is a simulator-level assertion, not modeled
 * hardware: if the event queue ever drains while frames are still in
 * flight, the simulation has wedged and the run dies with a pipeline
 * state report instead of silently returning partial results.
 */

#ifndef TENGIG_FAULT_WATCHDOG_HH
#define TENGIG_FAULT_WATCHDOG_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tengig {

namespace obs { class StatGroup; }

/**
 * Periodic per-core retirement checker.
 */
class FirmwareWatchdog
{
  public:
    FirmwareWatchdog(EventQueue &eq, Tick period_ticks);

    /**
     * Watch one firmware core without owning it: @p last_retire
     * returns the tick of its last real invocation.
     */
    void addCore(std::function<Tick()> last_retire);

    /** Only count stalls while this returns true (pipeline busy). */
    void setBusy(std::function<bool()> fn) { busyFn = std::move(fn); }

    /** Diagnostic dump appended to the first stall of an episode. */
    void setDump(std::function<std::string()> fn) { dumpFn = std::move(fn); }

    void arm();
    void disarm();

    std::uint64_t stallsDetected() const { return stalls.value(); }
    std::uint64_t checksRun() const { return checks.value(); }

    void registerStats(obs::StatGroup &g) const;

    /** One sampling pass (exposed for unit tests). */
    void check();

  private:
    EventQueue &eq;
    Tick period;
    bool armed = false;
    RecurringEvent event;
    std::vector<std::function<Tick()>> lastRetire;
    std::vector<Tick> lastSeen;
    std::vector<std::uint8_t> inStall; //!< dump once per episode
    std::function<bool()> busyFn;
    std::function<std::string()> dumpFn;
    stats::Counter stalls;
    stats::Counter checks;
};

/**
 * Dead-simulation detector.  check() is called at run-loop
 * boundaries; an empty event queue with the pipeline still busy is a
 * wedge and raises FatalError carrying the pipeline report.
 */
class LivenessMonitor
{
  public:
    /** @throws FatalError when @p queue_empty && @p pipeline_busy. */
    void check(bool queue_empty, bool pipeline_busy,
               const std::function<std::string()> &report);

    std::uint64_t checksRun() const { return checks.value(); }

    void registerStats(obs::StatGroup &g) const;

  private:
    stats::Counter checks;
};

} // namespace tengig

#endif // TENGIG_FAULT_WATCHDOG_HH
