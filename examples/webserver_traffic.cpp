/**
 * @file
 * Web-server scenario: the asymmetric traffic mix the paper's
 * introduction motivates (a network server feeding a 10 Gb/s link).
 *
 * Each scenario is a real multi-flow TrafficProfile (src/traffic): many
 * concurrent connections, bimodal request/response frame sizes, and
 * Poisson or bursty arrivals, instead of a single fixed-size stream.
 * The example reports how the firmware's cycle budget redistributes
 * between the send and receive paths under each mix; the paper's
 * symmetric bulk-transfer workload stays as the fixed-size reference.
 */

#include <cstdio>

#include "nic/controller.hh"

using namespace tengig;

namespace {

void
runMix(const char *name, const NicConfig &cfg)
{
    NicController nic(cfg);
    NicResults r = nic.run(2 * tickPerMs, 4 * tickPerMs);

    double send_cycles = 0, recv_cycles = 0;
    const FuncTag send_tags[] = {FuncTag::FetchSendBd, FuncTag::SendFrame,
                                 FuncTag::SendDispatch, FuncTag::SendLock};
    const FuncTag recv_tags[] = {FuncTag::FetchRecvBd, FuncTag::RecvFrame,
                                 FuncTag::RecvDispatch, FuncTag::RecvLock};
    for (FuncTag t : send_tags)
        send_cycles += static_cast<double>(r.profile[t].cycles);
    for (FuncTag t : recv_tags)
        recv_cycles += static_cast<double>(r.profile[t].cycles);
    double total = static_cast<double>(r.coreTotals.totalCycles());

    std::printf("%-24s | tx %5.2f Gb/s @%7.0f f/s | rx %5.2f Gb/s "
                "@%7.0f f/s | cycles: send %4.1f%% recv %4.1f%% idle "
                "%4.1f%% | flows %3llu | errors %llu\n",
                name, r.txUdpGbps, r.txFps, r.rxUdpGbps, r.rxFps,
                100.0 * send_cycles / total, 100.0 * recv_cycles / total,
                100.0 * r.coreTotals.idleCycles / total,
                static_cast<unsigned long long>(r.flowsValidated),
                static_cast<unsigned long long>(r.errors));
}

NicConfig
baseConfig()
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = 200.0;
    return cfg;
}

} // namespace

int
main()
{
    std::printf("Web-server traffic mixes on the 6-core 200 MHz NIC "
                "(duplex 10 GbE):\n\n");

    // Static-content server: 64 connections sending mostly full-size
    // response frames (a few small control frames mixed in), receiving
    // sparse small requests/ACKs as Poisson arrivals at 10% load.
    {
        NicConfig cfg = baseConfig();
        cfg.txTraffic = TrafficProfile::bimodalRequestResponse(
            64, 128, 1472, 0.05, 1.0, 0xc0ffee);
        cfg.rxTraffic = TrafficProfile::uniform(
            64, SizeModel::bimodal(90, 466, 0.8),
            ArrivalModel::poisson(), 0.10, 0xc0ffee);
        runMix("content server", cfg);
    }

    // API server: medium responses out, a steady stream of small
    // queries in at a quarter of line rate.
    {
        NicConfig cfg = baseConfig();
        cfg.txTraffic = TrafficProfile::bimodalRequestResponse(
            128, 200, 700, 0.3, 1.0, 0xa91);
        cfg.rxTraffic = TrafficProfile::uniform(
            128, SizeModel::fixed(200), ArrivalModel::poisson(), 0.25,
            0xa91);
        runMix("api server", cfg);
    }

    // Bulk ingest (log collector): small ACKs out, bursty near-line-
    // rate ingest of an IMIX-like mix in -- the inverted direction.
    {
        NicConfig cfg = baseConfig();
        cfg.txTraffic = TrafficProfile::uniform(
            32, SizeModel::fixed(100), ArrivalModel::paced(), 1.0,
            0x1095);
        cfg.rxTraffic = TrafficProfile::uniform(
            32, SizeModel::imix(), ArrivalModel::onOff(0.25, 32.0), 1.0,
            0x1095);
        runMix("ingest (rx-heavy)", cfg);
    }

    // Symmetric bulk transfer for reference: the paper's fixed-size
    // workload, one flow each way.
    runMix("bulk duplex (paper)", baseConfig());

    std::printf("\nThe firmware's frame-level organization lets idle "
                "send-path cores absorb receive\nwork (and vice versa) "
                "without static task assignment -- the cycle split "
                "above follows\nthe traffic mix, not the core count.\n");
    return 0;
}
