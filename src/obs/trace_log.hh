/**
 * @file
 * Chrome trace-event timeline recorder.
 *
 * An opt-in TraceLog attached to the EventQueue collects duration,
 * counter, and instant events from the component models (per-core
 * firmware invocations, DMA/MAC assist activity, SDRAM bursts,
 * crossbar occupancy samples).  write() emits the JSON-array flavor of
 * the Trace Event Format, loadable in chrome://tracing or Perfetto,
 * so a saturation run can be inspected visually: which core ran which
 * firmware function when, and what the assists and memory system were
 * doing around it.
 *
 * Rows are (pid, tid) lanes: every component claims a tid via lane()
 * and names it with a thread_name metadata record.  Ticks (ps) are
 * written as the format's microseconds exactly, to the picosecond.
 *
 * Recording is bounded: after maxEvents the log drops further events
 * and counts them, so an accidental hour-long traced run degrades to a
 * truncated timeline instead of an out-of-memory condition.
 */

#ifndef TENGIG_OBS_TRACE_LOG_HH
#define TENGIG_OBS_TRACE_LOG_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tengig {
namespace obs {

/** "No lane assigned": components with this lane id do not record. */
constexpr unsigned noTraceLane = 0xffffffffu;

class TraceLog
{
  public:
    /** @param max_events Hard cap on recorded events (0 = unbounded). */
    explicit TraceLog(std::size_t max_events = 2'000'000)
        : maxEvents(max_events)
    {}

    /**
     * Claim a timeline row and give it a display name.  Returns the
     * tid to pass to the record calls.  Rows appear in claim order.
     */
    unsigned lane(const std::string &name);

    /// @name Event recording
    /// @{
    /** Completed span: [start, start + dur) on row @p tid. */
    void complete(unsigned tid, const std::string &name, Tick start,
                  Tick dur, const std::string &category = "sim");

    /** Point-in-time marker. */
    void instant(unsigned tid, const std::string &name, Tick at,
                 const std::string &category = "sim");

    /** Sampled counter series (chrome renders these as area charts). */
    void counterSample(unsigned tid, const std::string &series, Tick at,
                       double value);
    /// @}

    /** Only record when enabled; attach points check this cheaply. */
    bool enabled() const { return recording; }
    void setEnabled(bool on) { recording = on; }

    std::size_t eventCount() const { return events.size(); }
    std::uint64_t droppedEvents() const { return dropped; }

    /** Emit the complete JSON array document. */
    void write(std::ostream &os) const;
    std::string str() const;

  private:
    enum class Phase : char
    {
        Complete = 'X',
        Instant = 'i',
        Counter = 'C',
    };

    struct Event
    {
        Phase phase;
        unsigned tid;
        Tick ts;
        Tick dur;      //!< Complete only
        double value;  //!< Counter only
        std::string name;
        std::string category;
    };

    bool admit();

    std::size_t maxEvents;
    bool recording = true;
    std::uint64_t dropped = 0;
    std::vector<std::string> lanes;
    std::vector<Event> events;
};

} // namespace obs
} // namespace tengig

#endif // TENGIG_OBS_TRACE_LOG_HH
