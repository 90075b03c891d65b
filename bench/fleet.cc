/**
 * @file
 * Scale-out fleet soak: M NICs in parallel, one deterministic run
 * (DESIGN.md §15).
 *
 * Four row families on the standard 6-core 200 MHz NIC with the fleet
 * duplex workload (fixed 1472 B frames, paced: tx 0.6 + rx 0.35 of
 * line rate, so the forwarded ring stream fits the destination wire):
 *
 *   baseline       one isolated instance, one thread: the per-node
 *                  host events/sec reference
 *   scale m<M>.t<T> ring-forwarding fleets of M nodes on T worker
 *                  threads; the scaling gate below applies to rows
 *                  with T <= hardware threads
 *   window w<W>    the throughput-vs-latency sweep: sync window W
 *                  (with fabric latency L = W, the lookahead minimum)
 *                  trades barrier overhead against switch transit
 *                  latency
 *   determinism    a 1-thread vs 4-thread pair of identical fleets
 *
 * The soak asserts the fleet contracts and exits nonzero on any
 * violation:
 *
 *   - determinism: the thread-count pair produces identical per-node
 *     wire/inject fingerprints and measured frame counts
 *   - correctness: zero validation errors on every row (forwarded
 *     frames may be shed at full FIFOs -- lossy receive contract --
 *     but never duplicated or corrupted)
 *   - scaling: for rows with 1 < T <= hardware threads, aggregate
 *     host events/sec >= 0.7 x T x the same fleet's 1-thread rate
 *   - concurrency: on multi-core hosts, threaded rows must observe
 *     >1 worker inside instance event loops simultaneously
 *
 * --json[=path] writes a tengig-bench-v1 document (default
 * BENCH_fleet.json); --quick shrinks windows for the smoke run.
 */

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "fleet/fleet.hh"

using namespace tengig;
using namespace tengig::bench;

namespace {

bool quick = false;
unsigned failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::printf("  FAIL: %s\n", what);
    }
}

/** Fleet duplex workload: full-size paced flows leaving enough wire
 *  headroom at each receiver for the forwarded upstream stream. */
NicConfig
fleetNode()
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.6, 0xf1e1);
    cfg.rxTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.35, 0xf1e2);
    return cfg;
}

FleetConfig
makeFleet(unsigned nodes, unsigned threads, Tick window_us, bool forward)
{
    FleetConfig fc = FleetConfig::uniform(fleetNode(), nodes, forward);
    fc.threads = threads;
    fc.syncWindowTicks = window_us * tickPerUs;
    fc.sw.fabricLatencyTicks = window_us * tickPerUs;
    fc.warmupTicks = quick ? 100 * tickPerUs : 500 * tickPerUs;
    fc.measureTicks = quick ? 200 * tickPerUs : 1500 * tickPerUs;
    return fc;
}

obs::json::Value
rowConfig(const FleetConfig &fc)
{
    using obs::json::Value;
    Value c = Value::object();
    c.set("nodes", static_cast<std::uint64_t>(fc.nodes.size()));
    c.set("threads", fc.threads);
    c.set("topology",
          fc.topology == FleetTopology::None ? "none" : "ring");
    c.set("syncWindowUs",
          static_cast<double>(fc.syncWindowTicks) / tickPerUs);
    c.set("switchLatencyUs",
          static_cast<double>(fc.sw.fabricLatencyTicks) / tickPerUs);
    c.set("txRate", 0.6);
    c.set("rxRate", 0.35);
    return c;
}

obs::json::Value
rowMetrics(const FleetResults &r, double scaling_efficiency)
{
    using obs::json::Value;
    Value m = Value::object();
    m.set("hostEventsPerSec", r.eventsPerSec);
    m.set("eventsExecuted", r.eventsExecuted);
    m.set("wallSeconds", r.wallSeconds);
    m.set("windows", r.windows);
    m.set("maxConcurrentWorkers", r.maxConcurrentWorkers);
    m.set("windowSeconds", r.windowSeconds);
    m.set("exchangeSeconds", r.exchangeSeconds);
    m.set("computeSeconds", r.computeSeconds);
    m.set("waitSeconds", r.waitSeconds);
    if (scaling_efficiency > 0)
        m.set("scalingEfficiency", scaling_efficiency);
    m.set("aggTotalUdpGbps", r.aggTotalGbps);
    m.set("aggTxUdpGbps", r.aggTxGbps);
    m.set("aggRxUdpGbps", r.aggRxGbps);
    m.set("errors", r.errors);
    m.set("framesForwarded", r.framesForwarded);
    m.set("framesDropped", r.framesDropped);
    m.set("injectRejected", r.injectRejected);
    m.set("switchLatencyMeanUs", r.switchLatencyMeanUs);
    m.set("switchLatencyP99Us", r.switchLatencyP99Us);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    quick = obs::hasFlag(argc, argv, "--quick");
    unsigned hw = std::thread::hardware_concurrency();
    if (!hw)
        hw = 1;

    obs::BenchReport report("fleet");
    printHeader("Fleet scale-out: M NICs in parallel, one "
                "deterministic run");
    std::printf("hardware threads: %u%s\n\n", hw,
                quick ? " (quick windows)" : "");

    std::printf("%-16s %8s %8s %12s %8s %10s %10s %8s\n", "row", "nodes",
                "threads", "events/s", "eff", "fwd", "latP99us", "errors");

    auto runRow = [&](const std::string &name, const FleetConfig &fc,
                      double eff_base) -> FleetResults {
        FleetRunner fleet(fc);
        FleetResults r = fleet.run();
        double eff = 0.0;
        if (eff_base > 0) {
            unsigned useful = std::min<unsigned>(
                {fc.threads ? fc.threads : hw, hw,
                 static_cast<unsigned>(fc.nodes.size())});
            eff = r.eventsPerSec / (useful * eff_base);
        }
        std::printf("%-16s %8zu %8u %12.0f %8.2f %10llu %10.1f %8llu\n",
                    name.c_str(), fc.nodes.size(), fc.threads,
                    r.eventsPerSec, eff,
                    static_cast<unsigned long long>(r.framesForwarded),
                    r.switchLatencyP99Us,
                    static_cast<unsigned long long>(r.errors));
        check(r.errors == 0, "validation errors in fleet row");
        // Delivery ledger: every offered frame must be forwarded or
        // accounted to a loss class; silent loss fails the soak.
        check(r.unaccountedLoss == 0,
              "unaccounted cross-node frame loss (ledger broken)");
        report.addRow(name, rowConfig(fc), rowMetrics(r, eff));
        return r;
    };

    // Baseline: one isolated node, one thread.
    FleetResults base =
        runRow("baseline", makeFleet(1, 1, 10, false), 0.0);

    // Thread-scaling rows: each fleet size measured at 1 thread (its
    // own linear-scaling reference) and at T = nodes threads.
    for (unsigned m : {2u, 4u}) {
        FleetConfig f1 = makeFleet(m, 1, 10, true);
        FleetResults r1 =
            runRow("scale m" + std::to_string(m) + ".t1", f1,
                   base.eventsPerSec);

        FleetConfig fm = makeFleet(m, m, 10, true);
        FleetResults rm = runRow(
            "scale m" + std::to_string(m) + ".t" + std::to_string(m),
            fm, r1.eventsPerSec);

        // The 0.7x-linear gate applies up to the hardware threads this
        // host actually has; oversubscribed rows are informational.
        if (m <= hw) {
            check(rm.eventsPerSec >= 0.7 * m * r1.eventsPerSec,
                  "aggregate events/sec below 0.7x linear scaling");
            check(rm.maxConcurrentWorkers > 1,
                  "threaded fleet never ran >1 instance concurrently");
        }
    }

    // Throughput-vs-latency sweep: sync window (= fabric latency).
    for (unsigned w : {2u, 5u, 10u, 20u, 50u}) {
        unsigned t = hw > 1 ? 2u : 1u;
        runRow("window w" + std::to_string(w) + "us",
               makeFleet(2, t, w, true), 0.0);
    }

    // Determinism pair: identical fleets, 1 vs 4 threads, must agree
    // on every per-node fingerprint and frame count.
    {
        FleetConfig fc = makeFleet(3, 1, 10, true);
        fc.warmupTicks = 100 * tickPerUs;
        fc.measureTicks = 200 * tickPerUs;
        FleetRunner serial(fc);
        FleetResults rs = serial.run();
        fc.threads = 4;
        FleetRunner threaded(fc);
        FleetResults rt = threaded.run();

        bool same = rs.wireHash == rt.wireHash &&
                    rs.injectHash == rt.injectHash &&
                    rs.framesForwarded == rt.framesForwarded;
        for (std::size_t i = 0; same && i < rs.nic.size(); ++i)
            same = rs.nic[i].txFrames == rt.nic[i].txFrames &&
                   rs.nic[i].rxFrames == rt.nic[i].rxFrames &&
                   rs.nic[i].errors == rt.nic[i].errors;
        std::printf("%-16s %8u %8s %12s %8s %10s %10s %8s\n",
                    "determinism", 3, "1 vs 4",
                    same ? "identical" : "DIVERGED", "-", "-", "-", "-");
        check(same, "fleet diverged across thread counts");

        using obs::json::Value;
        Value cfgj = rowConfig(fc);
        Value m = Value::object();
        m.set("identical", same);
        m.set("framesForwarded", rs.framesForwarded);
        report.addRow("determinism t1-vs-t4", std::move(cfgj),
                      std::move(m));
    }

    if (auto path = obs::jsonPathFromArgs(argc, argv, "fleet")) {
        report.write(*path);
        std::printf("\nwrote %s\n", path->c_str());
    }

    if (failures) {
        std::printf("\n%u fleet contract violation(s)\n", failures);
        return 1;
    }
    std::printf("\nall fleet contracts held\n");
    return 0;
}
