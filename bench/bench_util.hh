/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 */

#ifndef TENGIG_BENCH_BENCH_UTIL_HH
#define TENGIG_BENCH_BENCH_UTIL_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "nic/controller.hh"
#include "obs/bench_json.hh"

namespace tengig {
namespace bench {

/** Default measurement windows. */
constexpr Tick warmupTicks = 2 * tickPerMs;  //!< reach steady state
constexpr Tick measureTicks = 4 * tickPerMs;

/** Frames processed per direction in a result window. */
inline double
framesPerDirection(const NicResults &r)
{
    return 0.5 * (static_cast<double>(r.txFrames) +
                  static_cast<double>(r.rxFrames));
}

/** Per-frame profile row for one function bucket. */
struct ProfileRow
{
    double instructions;
    double memAccesses;
    double cycles;
};

/**
 * Normalize a bucket to per-frame-of-its-direction values.
 * Send-side buckets divide by transmitted frames, receive-side by
 * received frames.
 */
inline ProfileRow
perFrame(const NicResults &r, FuncTag tag)
{
    bool tx = tag == FuncTag::FetchSendBd || tag == FuncTag::SendFrame ||
              tag == FuncTag::SendDispatch || tag == FuncTag::SendLock;
    double frames = tx ? static_cast<double>(r.txFrames)
                       : static_cast<double>(r.rxFrames);
    const auto &b = r.profile[tag];
    if (frames <= 0)
        return {0, 0, 0};
    return {b.instructions / frames, b.memAccesses / frames,
            b.cycles / frames};
}

inline void
printHeader(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

/**
 * The standard metrics object for one NIC run, shared by every bench
 * that emits BENCH_*.json: duplex throughput, frame counts, the error
 * breakdown, per-core IPC, the receive latency percentile summary,
 * and memory-system bandwidths.  Keys are inserted in a fixed order
 * so reports diff cleanly run over run (tengig-bench-v1).
 */
inline obs::json::Value
nicRunMetrics(const NicResults &r)
{
    using obs::json::Value;
    Value m = Value::object();
    m.set("totalUdpGbps", r.totalUdpGbps);
    m.set("txUdpGbps", r.txUdpGbps);
    m.set("rxUdpGbps", r.rxUdpGbps);
    m.set("txFps", r.txFps);
    m.set("rxFps", r.rxFps);
    m.set("txFrames", r.txFrames);
    m.set("rxFrames", r.rxFrames);
    m.set("rxDropped", r.rxDropped);

    Value errors = Value::object();
    errors.set("total", r.errors);
    errors.set("integrity", r.integrityErrors);
    errors.set("orderGaps", r.orderGaps);
    errors.set("orderDuplicates", r.orderDuplicates);
    m.set("errors", std::move(errors));

    m.set("aggregateIpc", r.aggregateIpc);
    Value per_core = Value::array();
    for (double ipc : r.coreIpc)
        per_core.push(ipc);
    m.set("perCoreIpc", std::move(per_core));

    Value lat = Value::object();
    lat.set("count", r.rxLatency.count);
    lat.set("meanUs", r.rxLatency.meanUs);
    lat.set("p50Us", r.rxLatency.p50Us);
    lat.set("p95Us", r.rxLatency.p95Us);
    lat.set("p99Us", r.rxLatency.p99Us);
    lat.set("maxUs", r.rxLatency.maxUs);
    m.set("rxLatency", std::move(lat));

    m.set("spadGbps", r.spadGbps);
    m.set("sdramGbps", r.sdramGbps);
    m.set("imemGbps", r.imemGbps);
    return m;
}

/**
 * Faults injected under the fault group at @p fault (`fault` for the
 * whole NIC, `vf.<name>.fault` for one tenant): the sum of its six
 * injected classes.
 */
inline double
faultsInjected(const obs::StatGroup &t, const std::string &fault)
{
    double n = 0.0;
    for (const char *k :
         {".wire.crc_injected", ".wire.trunc_injected",
          ".wire.runt_injected", ".mem.faults_injected", ".doorbell.lost",
          ".poison.injected"})
        n += t.value(fault + k);
    return n;
}

/**
 * Parse `--jobs=N` from the command line (sweep parallelism).
 * Returns 1 (serial) when absent; 0 or garbage is clamped to 1.
 */
inline unsigned
jobsFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            long n = std::strtol(argv[i] + 7, nullptr, 10);
            return n > 1 ? static_cast<unsigned>(n) : 1u;
        }
    }
    return 1;
}

/**
 * Run @p n independent sweep points, `fn(i) -> R`, across up to
 * @p jobs worker threads, and return the results indexed by point.
 *
 * Each point builds its own NicController, so simulations share no
 * mutable state (the only process-wide global is the atomic logging
 * quiet flag) and every point produces the identical result it would
 * in a serial sweep -- the caller prints from the returned vector, in
 * order, after all points finish.  jobs <= 1 degenerates to a plain
 * loop with no threads.
 */
template <typename Fn>
auto
runSweep(unsigned jobs, std::size_t n, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    using R = decltype(fn(std::size_t{0}));
    std::vector<R> out(n);
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = fn(i);
        return out;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            out[i] = fn(i);
    };
    std::vector<std::thread> pool;
    std::size_t threads = std::min<std::size_t>(jobs, n);
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    return out;
}

} // namespace bench
} // namespace tengig

#endif // TENGIG_BENCH_BENCH_UTIL_HH
