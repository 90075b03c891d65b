/**
 * @file
 * Offload-headroom estimator.
 *
 * The paper's closing argument is that a programmable NIC's value is
 * the compute left over for services beyond Ethernet processing --
 * TCP offload, iSCSI, NIC-side file caching, intrusion detection.
 * This example measures that headroom: it sweeps offered load on the
 * 6-core RMW configuration and reports the idle instruction budget
 * (MIPS) available to hypothetical services at each utilization, plus
 * the extra budget gained by stepping the clock back up from 166 to
 * 200 MHz.
 */

#include <cstdio>

#include "nic/controller.hh"

using namespace tengig;

namespace {

struct Point
{
    double gbps;
    double idleMips;
    double idlePct;
};

Point
measure(double mhz, double load)
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = mhz;
    cfg.firmware.rmwEnhanced = true;
    cfg.rxTraffic.offeredRate = load;
    // Thin the transmit stream by shrinking the backlog window: use a
    // smaller ring so the sender idles between bursts at low load.
    if (load < 1.0)
        cfg.sendRingFrames = 64;
    NicController nic(cfg);
    NicResults r = nic.run(2 * tickPerMs, 3 * tickPerMs);
    double total = static_cast<double>(r.coreTotals.totalCycles());
    double idle_frac = r.coreTotals.idleCycles / total;
    double idle_mips = idle_frac * 6 * mhz; // one instr per idle cycle
    return Point{r.totalUdpGbps, idle_mips, 100.0 * idle_frac};
}

} // namespace

int
main()
{
    std::printf("Compute headroom for NIC-resident services "
                "(6-core RMW firmware):\n\n");
    std::printf("%-14s | %12s | %14s | %12s\n", "Receive load",
                "Duplex Gb/s", "Idle budget", "Idle share");
    std::printf("%.*s\n", 60,
                "------------------------------------------------------"
                "------");
    for (double load : {0.25, 0.5, 0.75, 1.0}) {
        Point p166 = measure(166.0, load);
        std::printf("%13.0f%% | %12.2f | %9.0f MIPS | %11.1f%%\n",
                    100 * load, p166.gbps, p166.idleMips, p166.idlePct);
    }

    Point full166 = measure(166.0, 1.0);
    Point full200 = measure(200.0, 1.0);
    std::printf("\nAt full line rate, stepping 166 -> 200 MHz buys "
                "%.0f extra MIPS of service\nbudget (%.1f%% -> %.1f%% "
                "idle) at higher power -- the paper's power argument "
                "in\nreverse: the RMW instructions made that budget "
                "available at the LOWER clock.\n",
                full200.idleMips - full166.idleMips, full166.idlePct,
                full200.idlePct);
    return 0;
}
