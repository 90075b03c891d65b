/**
 * @file
 * Quickstart: build the paper's 10 Gb/s NIC (6 cores at 200 MHz, 4
 * scratchpad banks), run a full-duplex stream of maximum-sized UDP
 * datagrams, and print the headline numbers.
 *
 * Usage: quickstart [cores] [mhz] [rmw(0|1)] [payload_bytes]
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "nic/controller.hh"

using namespace tengig;

int
main(int argc, char **argv)
{
    NicConfig cfg;
    cfg.cores = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 6;
    cfg.cpuMhz = argc > 2 ? std::atof(argv[2]) : 200.0;
    cfg.firmware.rmwEnhanced = argc > 3 && std::atoi(argv[3]) != 0;
    unsigned payload = argc > 4 ? static_cast<unsigned>(std::atoi(argv[4]))
                                : udpMaxPayloadBytes;
    cfg.txTraffic = TrafficProfile::paper(payload);
    cfg.rxTraffic = cfg.txTraffic;
    cfg.taskLevelFirmware = argc > 5 && std::atoi(argv[5]) != 0;

    std::cout << "tengig-nic quickstart: " << cfg.cores << " cores @ "
              << cfg.cpuMhz << " MHz, "
              << (cfg.firmware.rmwEnhanced ? "RMW-enhanced"
                                           : "software-only")
              << " ordering, "
              << (cfg.taskLevelFirmware ? "task-level" : "frame-level")
              << " firmware, " << payload
              << "B UDP payloads\n";

    NicController nic(cfg);
    NicResults r = nic.run(2 * tickPerMs, 4 * tickPerMs);

    double limit = 2 * lineRateUdpGbps(payload);
    std::cout << std::fixed << std::setprecision(2)
              << "  duplex UDP throughput : " << r.totalUdpGbps
              << " Gb/s (Ethernet limit " << limit << ")\n"
              << "  tx " << r.txUdpGbps << " Gb/s @ "
              << static_cast<std::uint64_t>(r.txFps) << " f/s | rx "
              << r.rxUdpGbps << " Gb/s @ "
              << static_cast<std::uint64_t>(r.rxFps) << " f/s\n"
              << "  per-core IPC          : " << std::setprecision(3)
              << r.aggregateIpc / cfg.cores << "\n"
              << "  scratchpad bandwidth  : " << std::setprecision(2)
              << r.spadGbps << " Gb/s consumed\n"
              << "  frame-memory bandwidth: " << r.sdramGbps
              << " Gb/s consumed\n"
              << "  validation errors     : " << r.errors
              << ", rx drops: " << r.rxDropped << "\n";

    const CoreStats &s = r.coreTotals;
    std::uint64_t tot = s.totalCycles();
    if (tot) {
        std::cout << "  cycle breakdown: execute "
                  << 100.0 * s.executeCycles / tot << "% | imiss "
                  << 100.0 * s.imissCycles / tot << "% | load "
                  << 100.0 * s.loadStallCycles / tot << "% | conflict "
                  << 100.0 * s.conflictCycles / tot << "% | pipeline "
                  << 100.0 * s.pipelineCycles / tot << "% | idle "
                  << 100.0 * s.idleCycles / tot << "%\n";
    }
    return r.errors == 0 ? 0 : 1;
}
