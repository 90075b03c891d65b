/**
 * @file
 * Fleet chaos soak: a 4-node ring driven through a fabric fault storm
 * (DESIGN.md §16).
 *
 * Every node transmits a paced 0.6-line-rate 1472 B stream to its ring
 * neighbor and receives only cross-node traffic, so the per-flow
 * receive validators measure end-to-end fleet delivery and nothing
 * else.  The storm -- link flaps, mid-fabric drops, frame corruption,
 * ack loss, node-stall episodes -- is confined to the warmup window;
 * measurement opens after it ends.
 *
 * Rows and the contracts they assert (nonzero exit on any violation):
 *
 *   baseline       no chaos: the recovery reference
 *   health_identity baseline config + the health monitor: identical
 *                  per-node fingerprints and frame counts (the monitor
 *                  is a pure observer)
 *   storm_lossy    chaos on, reliable delivery off: losses are allowed
 *                  (gaps) but every lost frame is accounted to exactly
 *                  one fault class (unaccountedLoss == 0), nothing is
 *                  duplicated or delivered corrupted, and >= 1% of
 *                  offered frames were faulted (the storm is real)
 *   storm_reliable chaos on, reliable delivery on: zero gaps, zero
 *                  errors end to end; exact injected == recovered per
 *                  fault class; every storm-era frame recovered
 *                  (pendingStormEra == 0); duplicate suppressions ==
 *                  lost acks; receiver retries == MAC refusals;
 *                  measured receive throughput >= 95% of baseline
 *   determinism    the storm_reliable fleet on 1 vs 4 threads:
 *                  bit-identical fingerprints and fleet stat trees
 *
 * --json[=path] writes a tengig-bench-v1 document (default
 * BENCH_fleet_chaos.json); --quick shrinks windows for the smoke run.
 */

#include <cstdio>
#include <memory>
#include <string>
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

/** Cross-traffic-only workload: every received frame crossed the
 *  fabric, so receive validation is end-to-end fleet delivery. */
NicConfig
chaosNode()
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.6, 0xc4a05);
    // Meter host posting to the profile's offered rate: without
    // pacing the send ring stays full and the tx wire saturates,
    // leaving the switch egress ports zero headroom to ever drain a
    // retransmission backlog.
    cfg.txPaceRate = 0.6;
    cfg.rxTraffic = TrafficProfile{};
    return cfg;
}

FleetConfig
makeFleet(unsigned threads)
{
    FleetConfig fc = FleetConfig::uniform(chaosNode(), 4, true);
    fc.threads = threads;
    fc.syncWindowTicks = 10 * tickPerUs;
    fc.sw.fabricLatencyTicks = 10 * tickPerUs;
    // A shallow egress FIFO keeps the worst-case RTT (and with it the
    // derived retransmit timeout) in the tens of microseconds.
    fc.sw.egressQueueFrames = 32;
    fc.warmupTicks = quick ? 600 * tickPerUs : 1500 * tickPerUs;
    fc.measureTicks = quick ? 900 * tickPerUs : 3000 * tickPerUs;
    return fc;
}

/** The storm: every fault class live at once, ending well before the
 *  measurement window opens. */
void
addStorm(FleetConfig &fc)
{
    FabricFaultPlan &p = fc.fabricFaults;
    p.stormStart = quick ? 50 * tickPerUs : 100 * tickPerUs;
    p.stormEnd = quick ? 450 * tickPerUs : 1200 * tickPerUs;
    p.linkFlapRate = 0.25;
    p.dropRate = 0.02;
    p.corruptRate = 0.02;
    p.ackDropRate = 0.05;
    p.nodeStallRate = 0.02;
    p.nodeStallTicks = 50 * tickPerUs;
}

obs::json::Value
rowConfig(const FleetConfig &fc)
{
    using obs::json::Value;
    Value c = Value::object();
    c.set("nodes", static_cast<std::uint64_t>(fc.nodes.size()));
    c.set("threads", fc.threads);
    c.set("chaos", fc.fabricFaults.enabled());
    c.set("reliable", fc.reliable.enabled);
    c.set("stormUs",
          static_cast<double>(fc.fabricFaults.stormEnd -
                              fc.fabricFaults.stormStart) / tickPerUs);
    c.set("egressQueueFrames", fc.sw.egressQueueFrames);
    return c;
}

/** One finished row: the run's results beside its live fleet, whose
 *  stat tree holds the chaos, health and reliable-delivery counters. */
struct Row
{
    std::unique_ptr<FleetRunner> fleet;
    FleetResults r;

    /** A fleet stat, or 0 where the row's config never registered it
     *  (no chaos, no health monitor, no reliable delivery). */
    double
    stat(const std::string &path) const
    {
        const obs::StatGroup &t = fleet->fleetStats();
        return t.has(path) ? t.value(path) : 0.0;
    }

    /** Frames the fabric lost to injected faults. */
    double
    faulted() const
    {
        return stat("switch.chaos.link_down_kills") +
               stat("switch.chaos.drops") + stat("switch.chaos.corrupt");
    }

    double
    recovered(FabricFaultClass c) const
    {
        return stat(std::string("reliable.recovered.") +
                    fabricFaultClassName(c));
    }

    double
    recoveredTotal() const
    {
        double n = 0.0;
        for (unsigned c = 0; c < fabricFaultClassCount; ++c)
            n += recovered(static_cast<FabricFaultClass>(c));
        return n;
    }
};

obs::json::Value
rowMetrics(const Row &row)
{
    using obs::json::Value;
    const FleetResults &r = row.r;
    Value m = Value::object();
    m.set("hostEventsPerSec", r.eventsPerSec);
    m.set("windows", r.windows);
    m.set("measuredUs", r.nic.empty() ? 0.0
          : static_cast<double>(r.nic[0].measuredTicks) / tickPerUs);
    m.set("aggRxUdpGbps", r.aggRxGbps);
    m.set("errors", r.errors);
    m.set("fabricOffered", r.fabricOffered);
    m.set("framesForwarded", r.framesForwarded);
    m.set("framesDropped", r.framesDropped);
    m.set("linkDownKills", row.stat("switch.chaos.link_down_kills"));
    m.set("fabricDrops", row.stat("switch.chaos.drops"));
    m.set("fabricCorrupt", row.stat("switch.chaos.corrupt"));
    m.set("fabricAckLost", row.stat("switch.chaos.ack_lost"));
    m.set("linkDownTicks", row.stat("switch.chaos.link_down_ticks"));
    m.set("nodeStallEpisodes",
          row.stat("switch.chaos.node_stall_episodes"));
    m.set("heartbeatMisses", row.stat("health.heartbeat_misses"));
    m.set("unaccountedLoss", r.unaccountedLoss);
    m.set("retransmits", row.stat("reliable.retransmits"));
    m.set("recoveredTotal", row.recoveredTotal());
    m.set("dupSuppressed", row.stat("reliable.dup_suppressed"));
    m.set("rxRefusals", row.stat("reliable.rx_refusals"));
    m.set("rxRetries", row.stat("reliable.rx_retries"));
    m.set("pendingStormEra", row.stat("reliable.pending_storm_era"));
    return m;
}

std::uint64_t
sumGaps(const FleetResults &r)
{
    std::uint64_t n = 0;
    for (const NicResults &nic : r.nic)
        n += nic.orderGaps;
    return n;
}

std::uint64_t
sumDups(const FleetResults &r)
{
    std::uint64_t n = 0;
    for (const NicResults &nic : r.nic)
        n += nic.orderDuplicates;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    quick = obs::hasFlag(argc, argv, "--quick");

    obs::BenchReport report("fleet_chaos");
    printHeader("Fleet chaos soak: fault storm, detection, and "
                "end-to-end recovery");
    std::printf("4-node ring, cross-traffic only%s\n\n",
                quick ? " (quick windows)" : "");

    std::printf("%-16s %10s %8s %8s %8s %8s %8s %8s\n", "row",
                "rxGbps", "faulted", "recov", "retx", "gaps", "dups",
                "errors");

    auto runRow = [&](const std::string &name, const FleetConfig &fc) {
        Row row;
        row.fleet = std::make_unique<FleetRunner>(fc);
        row.r = row.fleet->run();
        const FleetResults &r = row.r;
        std::printf("%-16s %10.3f %8llu %8llu %8llu %8llu %8llu %8llu\n",
                    name.c_str(), r.aggRxGbps,
                    static_cast<unsigned long long>(row.faulted()),
                    static_cast<unsigned long long>(row.recoveredTotal()),
                    static_cast<unsigned long long>(
                        row.stat("reliable.retransmits")),
                    static_cast<unsigned long long>(sumGaps(r)),
                    static_cast<unsigned long long>(sumDups(r)),
                    static_cast<unsigned long long>(r.errors));
        check(r.unaccountedLoss == 0,
              "unaccounted cross-node frame loss (ledger broken)");
        report.addRow(name, rowConfig(fc), rowMetrics(row));
        return row;
    };

    // Reference: the same fleet with a quiet fabric.
    FleetConfig base = makeFleet(1);
    Row baseline = runRow("baseline", base);
    const FleetResults &rb = baseline.r;
    check(rb.errors == 0, "baseline fleet has validation errors");
    check(sumGaps(rb) == 0, "baseline fleet has receive gaps");

    // The health monitor is a pure observer: turning it on must not
    // move a single frame or fingerprint bit.
    {
        FleetConfig fc = makeFleet(1);
        fc.healthMonitor = true;
        Row health = runRow("health_identity", fc);
        const FleetResults &rh = health.r;
        bool same = rh.wireHash == rb.wireHash &&
                    rh.injectHash == rb.injectHash &&
                    rh.framesForwarded == rb.framesForwarded &&
                    rh.errors == rb.errors;
        for (std::size_t i = 0; same && i < rb.nic.size(); ++i)
            same = rh.nic[i].txFrames == rb.nic[i].txFrames &&
                   rh.nic[i].rxFrames == rb.nic[i].rxFrames;
        check(same, "health monitor perturbed a chaos-free run");
    }

    // Storm without recovery: losses are visible (gaps) but every one
    // is accounted, nothing arrives corrupted or duplicated, and the
    // storm actually bites.
    {
        FleetConfig fc = makeFleet(1);
        addStorm(fc);
        Row row = runRow("storm_lossy", fc);
        const FleetResults &r = row.r;
        check(r.errors == 0,
              "storm delivered corrupted or duplicated payloads");
        check(sumDups(r) == 0, "storm duplicated frames");
        check(row.faulted() * 100 >= static_cast<double>(r.fabricOffered),
              "storm intensity under 1% of offered frames");
        check(row.stat("switch.chaos.link_down_kills") > 0 &&
                  row.stat("switch.chaos.drops") > 0 &&
                  row.stat("switch.chaos.corrupt") > 0,
              "a fault class never fired (storm not exercising "
              "all classes)");
        check(row.stat("switch.chaos.node_stall_episodes") > 0,
              "no node-stall episodes fired");
        check(row.stat("health.heartbeat_misses") > 0,
              "health monitor missed the induced node stalls");
        check(row.stat("switch.chaos.link_down_ticks") > 0,
              "no link flap down time recorded");
    }

    // Storm with end-to-end reliable delivery: zero loss, zero
    // corruption, exact recovery accounting, full post-storm drain.
    FleetConfig reliableFleet = makeFleet(1);
    addStorm(reliableFleet);
    reliableFleet.reliable.enabled = true;
    Row reliable = runRow("storm_reliable", reliableFleet);
    {
        const Row &row = reliable;
        const FleetResults &rr = row.r;
        check(rr.errors == 0, "reliable storm delivered bad payloads");
        check(sumGaps(rr) == 0,
              "reliable delivery lost cross-node frames (gaps)");
        check(sumDups(rr) == 0,
              "duplicate suppression let a retransmission through");
        check(row.faulted() * 100 >= static_cast<double>(rr.fabricOffered),
              "storm intensity under 1% of offered frames");
        check(row.recovered(FabricFaultClass::LinkDown) ==
                  row.stat("switch.chaos.link_down_kills"),
              "link-down kills not exactly recovered");
        check(row.recovered(FabricFaultClass::Drop) ==
                  row.stat("switch.chaos.drops"),
              "fabric drops not exactly recovered");
        check(row.recovered(FabricFaultClass::Corrupt) ==
                  row.stat("switch.chaos.corrupt"),
              "corruptions not exactly recovered");
        check(row.recovered(FabricFaultClass::AckLost) ==
                  row.stat("switch.chaos.ack_lost"),
              "lost acks not exactly recovered");
        check(row.recovered(FabricFaultClass::EgressFull) ==
                  static_cast<double>(rr.framesDropped),
              "egress-FIFO drops not exactly recovered");
        check(row.stat("reliable.pending_storm_era") == 0,
              "storm-era frames still unrecovered at run end");
        check(row.stat("reliable.owed_outstanding") == 0,
              "known-lost frames never repaid");
        check(row.stat("reliable.dup_suppressed") ==
                  row.stat("switch.chaos.ack_lost"),
              "duplicate suppressions != lost acks");
        check(row.stat("reliable.rx_retries") ==
                  row.stat("reliable.rx_refusals"),
              "receiver retries != MAC refusals");
        check(row.stat("reliable.rx_buffered") == 0,
              "frames still parked in reorder buffers at run end");
        check(rr.aggRxGbps >= 0.95 * rb.aggRxGbps,
              "post-storm recovery under 95% of baseline throughput");
    }

    // Chaos determinism: the storm_reliable fleet must be bit-
    // identical on 1 vs 4 worker threads -- every roll happens in the
    // single-threaded barrier pass.  The fleet stat trees carry every
    // chaos, health and recovery counter.
    {
        FleetConfig fc = makeFleet(4);
        addStorm(fc);
        fc.reliable.enabled = true;
        FleetRunner threaded(fc);
        FleetResults rt = threaded.run();
        const FleetResults &rr = reliable.r;

        bool same = rt.wireHash == rr.wireHash &&
                    rt.injectHash == rr.injectHash &&
                    threaded.fleetStats().toJson().dump() ==
                        reliable.fleet->fleetStats().toJson().dump();
        for (std::size_t i = 0; same && i < rr.nic.size(); ++i)
            same = rt.nic[i].txFrames == rr.nic[i].txFrames &&
                   rt.nic[i].rxFrames == rr.nic[i].rxFrames &&
                   rt.nic[i].errors == rr.nic[i].errors;
        std::printf("%-16s %10s %8s %8s %8s %8s %8s %8s\n",
                    "determinism", same ? "identical" : "DIVERGED",
                    "-", "-", "-", "-", "-", "-");
        check(same, "chaos fleet diverged across thread counts");

        using obs::json::Value;
        Value m = Value::object();
        m.set("identical", same);
        m.set("retransmits",
              threaded.fleetStats().value("reliable.retransmits"));
        report.addRow("determinism t1-vs-t4", rowConfig(fc),
                      std::move(m));
    }

    if (auto path = obs::jsonPathFromArgs(argc, argv, "fleet_chaos")) {
        report.write(*path);
        std::printf("\nwrote %s\n", path->c_str());
    }

    if (failures) {
        std::printf("\n%u chaos contract violation(s)\n", failures);
        return 1;
    }
    std::printf("\nall chaos contracts held\n");
    return 0;
}
