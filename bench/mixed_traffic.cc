/**
 * @file
 * Mixed-size duplex throughput: fixed-size streams vs. realistic
 * multi-flow mixes.
 *
 * The paper evaluates fixed-size workloads (Fig. 8 sweeps the size).
 * This bench drives the same 6-core 200 MHz NIC with flow-level
 * mixes -- bimodal request/response and the classic IMIX -- and
 * compares achieved duplex goodput against both the fixed-size
 * baseline and each mix's theoretical UDP goodput limit at 10 Gb/s
 * line rate.  Mixed traffic lowers the ceiling (more frames per byte
 * moved), which is exactly the per-frame-cost regime where the
 * paper's small-frame results live.
 *
 * With --json[=path] every workload row is also written as a
 * tengig-bench-v1 document (metrics from bench::nicRunMetrics,
 * including per-core IPC and the rx latency percentiles), default
 * BENCH_mixed_traffic.json.  --quick shrinks the flow count and the
 * measurement window so the ctest smoke test finishes fast.  --jobs=N
 * runs the workloads on N worker threads (identical output; each
 * workload is an isolated deterministic simulation).
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace tengig;
using namespace tengig::bench;

namespace {

bool quick = false;

Tick
measureWindow()
{
    return quick ? tickPerMs / 2 : 3 * tickPerMs;
}

unsigned
flowsPerDirection()
{
    return quick ? 8 : 64;
}

/** UDP goodput limit at line rate for a per-frame size model. */
double
goodputLimitGbps(const SizeModel &size)
{
    // mean payload bits per mean wire time.
    return size.meanPayloadBytes() * 8.0 /
           (size.meanWireTicks() / tickPerSec) / 1e9;
}

void
printRow(const char *name, const NicResults &r, double limit)
{
    std::printf("%-22s | %7.2f | %8.2f | %5.1f%% | %9.0f | %6llu\n",
                name, r.totalUdpGbps, limit,
                100.0 * r.totalUdpGbps / limit, r.txFps + r.rxFps,
                static_cast<unsigned long long>(r.errors));
}

void
addRow(obs::BenchReport &report, const char *name, const NicResults &r,
       double limit, const char *size_model, const char *arrival_model)
{
    obs::json::Value cfg = obs::json::Value::object();
    cfg.set("sizeModel", size_model);
    cfg.set("arrivalModel", arrival_model);
    cfg.set("flowsPerDirection", flowsPerDirection());
    cfg.set("duplexGoodputLimitGbps", limit);
    report.addRow(name, std::move(cfg), nicRunMetrics(r));
}

NicResults
runMix(const SizeModel &size, const ArrivalModel &arrival)
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = 200.0;
    cfg.txTraffic = TrafficProfile::uniform(flowsPerDirection(), size,
                                            ArrivalModel::paced(), 1.0,
                                            0xbe7c);
    cfg.rxTraffic = TrafficProfile::uniform(flowsPerDirection(), size,
                                            arrival, 1.0, 0xbe7c);
    NicController nic(cfg);
    return nic.run(tickPerMs, measureWindow());
}

NicResults
runFixed(unsigned payload)
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = 200.0;
    cfg.txTraffic = TrafficProfile::paper(payload);
    cfg.rxTraffic = cfg.txTraffic;
    NicController nic(cfg);
    return nic.run(tickPerMs, measureWindow());
}

/** One sweep point: how to simulate it and how to label the output. */
struct Workload
{
    const char *name;
    std::function<NicResults()> sim;
    double limit;
    const char *sizeModel;
    const char *arrivalName;
};

} // namespace

int
main(int argc, char **argv)
{
    quick = obs::hasFlag(argc, argv, "--quick");

    std::vector<Workload> work;
    auto fixed = [&](const char *name, unsigned payload) {
        work.push_back({name, [payload] { return runFixed(payload); },
                        2.0 * lineRateUdpGbps(payload), "fixed",
                        "paced"});
    };
    auto mix = [&](const char *name, SizeModel size, ArrivalModel arrival,
                   const char *arrival_name) {
        work.push_back({name,
                        [size, arrival] { return runMix(size, arrival); },
                        2.0 * goodputLimitGbps(size), "mix",
                        arrival_name});
    };
    fixed("fixed 1472 (paper)", 1472);
    fixed("fixed 594-wire", 594 - framingOverheadBytes);
    mix("bimodal 90/1472", SizeModel::bimodal(90, 1472, 0.5),
        ArrivalModel::paced(), "paced");
    mix("bimodal + poisson", SizeModel::bimodal(90, 1472, 0.5),
        ArrivalModel::poisson(), "poisson");
    if (!quick) {
        mix("imix + poisson", SizeModel::imix(), ArrivalModel::poisson(),
            "poisson");
        mix("imix + on/off bursts", SizeModel::imix(),
            ArrivalModel::onOff(0.25, 32.0), "onOff");
    }

    std::vector<NicResults> results = runSweep(
        jobsFromArgs(argc, argv), work.size(),
        [&](std::size_t i) { return work[i].sim(); });

    std::printf("Duplex goodput under mixed frame sizes "
                "(%u flows/direction, 6 cores @ 200 MHz):\n\n",
                flowsPerDirection());
    std::printf("%-22s | %7s | %8s | %6s | %9s | %6s\n", "workload",
                "Gb/s", "limit", "of max", "frames/s", "errors");

    obs::BenchReport report("mixed_traffic");
    for (std::size_t i = 0; i < work.size(); ++i) {
        const Workload &w = work[i];
        printRow(w.name, results[i], w.limit);
        addRow(report, w.name, results[i], w.limit, w.sizeModel,
               w.arrivalName);
    }

    if (auto path = obs::jsonPathFromArgs(argc, argv, "mixed_traffic")) {
        report.write(*path);
        std::printf("\nwrote %s (%zu rows)\n", path->c_str(),
                    report.rows());
    }
    return 0;
}
