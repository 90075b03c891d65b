/**
 * @file
 * Figure 8: full-duplex throughput for various UDP datagram sizes --
 * software-only at 200 MHz vs RMW-enhanced at 166 MHz, 6 cores each.
 *
 * Paper shape: both configurations track the (size-dependent) Ethernet
 * limit at large datagrams; as datagrams shrink, rising frame rates
 * exhaust the processors and both saturate at roughly the same peak
 * frame rate (~2.2 M frames/s), with a visible gap around 800-byte
 * datagrams where the RMW configuration's slightly lower peak frame
 * rate shows.
 *
 * --jobs=N runs the sweep points on N worker threads (identical
 * output; each point is an isolated deterministic simulation).
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace tengig;
using namespace tengig::bench;

namespace {

NicResults
runPoint(unsigned payload, bool rmw)
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = rmw ? 166.0 : 200.0;
    cfg.firmware.rmwEnhanced = rmw;
    cfg.txTraffic = TrafficProfile::paper(payload);
    cfg.rxTraffic = cfg.txTraffic;
    NicController nic(cfg);
    return nic.run(warmupTicks, measureTicks);
}

} // namespace

int
main(int argc, char **argv)
{
    printHeader("Figure 8: duplex throughput vs UDP datagram size");

    const std::vector<unsigned> sizes = {18, 100, 200, 400, 600, 800,
                                         1000, 1200, 1472};
    // Two runs (software-only, RMW-enhanced) per size, swept together.
    std::vector<NicResults> results = runSweep(
        jobsFromArgs(argc, argv), sizes.size() * 2, [&](std::size_t i) {
            return runPoint(sizes[i / 2], i % 2 == 1);
        });

    std::printf("%-8s | %8s | %13s | %13s | %10s | %10s\n", "UDP B",
                "limit", "SW@200 Gb/s", "RMW@166 Gb/s", "SW Mf/s",
                "RMW Mf/s");
    std::printf("%.*s\n", 76,
                "--------------------------------------------------------"
                "--------------------");

    double sw_peak_fps = 0, rmw_peak_fps = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        unsigned p = sizes[i];
        const NicResults &sw = results[i * 2];
        const NicResults &rmw = results[i * 2 + 1];
        double sw_fps = (sw.txFps + sw.rxFps) / 1e6;
        double rmw_fps = (rmw.txFps + rmw.rxFps) / 1e6;
        sw_peak_fps = std::max(sw_peak_fps, sw_fps);
        rmw_peak_fps = std::max(rmw_peak_fps, rmw_fps);
        std::printf("%-8u | %8.2f | %13.2f | %13.2f | %10.2f | %10.2f\n",
                    p, 2 * lineRateUdpGbps(p), sw.totalUdpGbps,
                    rmw.totalUdpGbps, sw_fps, rmw_fps);
    }

    std::printf("\nPeak total frame rate: SW %.2f Mf/s, RMW %.2f Mf/s "
                "(paper: both saturate near 2.2 Mf/s,\nwith the RMW "
                "configuration's peak slightly lower due to "
                "lock-contention imbalance).\n", sw_peak_fps,
                rmw_peak_fps);
    return 0;
}
