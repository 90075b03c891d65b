#include "trace_log.hh"

#include <sstream>

#include "obs/json.hh"
#include "sim/logging.hh"

namespace tengig {
namespace obs {

unsigned
TraceLog::lane(const std::string &name)
{
    lanes.push_back(name);
    return static_cast<unsigned>(lanes.size() - 1);
}

bool
TraceLog::admit()
{
    if (!recording)
        return false;
    if (maxEvents && events.size() >= maxEvents) {
        ++dropped;
        return false;
    }
    return true;
}

void
TraceLog::complete(unsigned tid, const std::string &name, Tick start,
                   Tick dur, const std::string &category)
{
    if (!admit())
        return;
    events.push_back({Phase::Complete, tid, start, dur, 0.0, name,
                      category});
}

void
TraceLog::instant(unsigned tid, const std::string &name, Tick at,
                  const std::string &category)
{
    if (!admit())
        return;
    events.push_back({Phase::Instant, tid, at, 0, 0.0, name, category});
}

void
TraceLog::counterSample(unsigned tid, const std::string &series, Tick at,
                        double value)
{
    if (!admit())
        return;
    events.push_back({Phase::Counter, tid, at, 0, value, series,
                      "counter"});
}

namespace {

/**
 * Trace-event timestamps are microseconds; ticks are picoseconds.
 * Streams a tick count as exact decimal microseconds: the whole part,
 * then the six-digit picosecond remainder without trailing zeros.
 */
struct Us
{
    Tick t;
};

std::ostream &
operator<<(std::ostream &os, Us u)
{
    static_assert(tickPerUs == 1000000, "six fractional digits");
    os << u.t / tickPerUs;
    Tick frac = u.t % tickPerUs;
    if (frac == 0)
        return os;
    char digits[6];
    for (int i = 5; i >= 0; --i, frac /= 10)
        digits[i] = static_cast<char>('0' + frac % 10);
    int n = 6;
    while (digits[n - 1] == '0')
        --n;
    return os.put('.').write(digits, n);
}

} // namespace

void
TraceLog::write(std::ostream &os) const
{
    // Streamed, not built as one json::Value: traces run to millions
    // of events and the per-event object overhead would dominate.
    // The emitted text is still exactly the JSON-array trace flavor.
    os << "[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
           << tid << ",\"args\":{\"name\":" << json::escape(lanes[tid])
           << "}}";
        // sort_index pins row order to lane-claim order.
        sep();
        os << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << tid << ",\"args\":{\"sort_index\":" << tid
           << "}}";
    }

    for (const Event &e : events) {
        sep();
        os << "{\"name\":" << json::escape(e.name) << ",\"cat\":"
           << json::escape(e.category) << ",\"ph\":\""
           << static_cast<char>(e.phase) << "\",\"pid\":0,\"tid\":"
           << e.tid << ",\"ts\":" << Us{e.ts};
        switch (e.phase) {
          case Phase::Complete:
            os << ",\"dur\":" << Us{e.dur};
            break;
          case Phase::Counter:
            os << ",\"args\":{\"value\":" << e.value << "}";
            break;
          case Phase::Instant:
            os << ",\"s\":\"t\"";
            break;
        }
        os << "}";
    }
    if (dropped) {
        sep();
        os << "{\"name\":\"trace truncated: " << dropped
           << " events dropped\",\"cat\":\"meta\",\"ph\":\"i\",\"pid\":0,"
           << "\"tid\":0,\"ts\":0,\"s\":\"g\"}";
    }
    os << "\n]\n";
}

std::string
TraceLog::str() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

} // namespace obs
} // namespace tengig
