/**
 * @file
 * Fault-storm soak: graceful degradation under combined injected
 * faults on a 64-flow duplex workload.
 *
 * Three rows on the same 6-core 200 MHz NIC:
 *
 *   fault_free  the baseline (plan disabled, all hooks absent)
 *   storm       wire bit-flips/truncations/runts, transient memory
 *               faults and lost doorbells at >= 1% of frames for the
 *               whole run
 *   recovery    the same storm confined to the warmup window; the
 *               measured window starts at storm end
 *
 * The soak asserts the degradation contracts from DESIGN.md §12 and
 * exits nonzero on any violation:
 *
 *   - zero corrupted payloads reach any flow validator (errors == 0)
 *   - the simulation never hangs (the liveness monitor guards every
 *     run-loop boundary; returning at all is the proof)
 *   - every injected fault is matched by its detection/recovery
 *     counter
 *   - post-storm throughput recovers to >= 95% of the fault-free rate
 *     within the measured window
 *
 * --json[=path] writes a tengig-bench-v1 document (default
 * BENCH_fault_storm.json); --quick shrinks flows and windows for the
 * ctest smoke run.
 */

#include <cstdio>

#include "bench/bench_util.hh"

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

Tick
warmupWindow()
{
    return quick ? tickPerMs / 2 : 2 * tickPerMs;
}

Tick
measureWindow()
{
    return quick ? tickPerMs : 4 * tickPerMs;
}

unsigned
flowsPerDirection()
{
    return quick ? 8 : 64;
}

NicConfig
stormConfig()
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = 200.0;
    unsigned flows = flowsPerDirection();
    cfg.txTraffic = TrafficProfile::uniform(
        flows, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0,
        0xbe7c);
    cfg.rxTraffic = TrafficProfile::uniform(
        flows, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0,
        0xbe7c);
    return cfg;
}

/** The storm mix: >= 1% of frames see a fault in each direction. */
void
armStorm(FaultPlan &p, Tick storm_start, Tick storm_end)
{
    p.stormStart = storm_start;
    p.stormEnd = storm_end;
    p.wireCrcRate = 0.010;      // per rx frame
    p.wireTruncateRate = 0.005;
    p.wireRuntRate = 0.005;
    p.txPoisonRate = 0.010;     // per tx frame
    p.memFaultRate = 0.004;     // per DMA transfer (~3 per frame)
    p.doorbellDropRate = 0.050; // per doorbell ring
    p.watchdogCycles = 50000;   // 250 us at 200 MHz
}

/** Fault counters appended to the JSON metrics for storm rows. */
obs::json::Value
faultMetrics(NicController &nic)
{
    using obs::json::Value;
    Value f = Value::object();
    const obs::StatGroup &t = nic.statTree();
    if (!t.findGroup("fault"))
        return f;
    f.set("totalInjected", faultsInjected(t, "fault"));
    f.set("wireCrc", t.value("fault.wire.crc_injected"));
    f.set("wireTrunc", t.value("fault.wire.trunc_injected"));
    f.set("wireRunt", t.value("fault.wire.runt_injected"));
    f.set("memFaults", t.value("fault.mem.faults_injected"));
    f.set("memRetries", t.value("fault.mem.retries"));
    f.set("memDrops", t.value("fault.mem.drops"));
    f.set("doorbellsLost", t.value("fault.doorbell.lost"));
    f.set("doorbellRetries", t.value("fault.doorbell.retries"));
    f.set("txPoisoned", t.value("fault.poison.injected"));
    f.set("poisonSkips", t.value("fault.poison.skips"));
    return f;
}

void
checkNoCorruption(NicController &nic, const NicResults &r,
                  const char *row)
{
    std::printf("[%s] %.2f Gb/s duplex, %llu errors\n", row,
                r.totalUdpGbps,
                static_cast<unsigned long long>(r.errors));
    check(r.errors == 0, "validation errors (ordering/integrity)");
    check(nic.txFlowSink().integrityErrors() == 0,
          "corrupted payloads reached the wire-side flow validator");
    check(nic.rxFlowSink().integrityErrors() == 0,
          "corrupted payloads reached the host-side flow validator");
}

/** Every injected fault accounted for. */
void
checkAccounting(NicController &nic, const NicResults &r)
{
    const obs::StatGroup &t = nic.statTree();
    check(t.findGroup("fault") != nullptr,
          "fault stat group missing on a storm run");
    if (!t.findGroup("fault"))
        return;
    MacRx &rx = nic.macRxAssist();
    MacTx &tx = nic.macTxAssist();

    // The storm really happened, at soak intensity.
    std::uint64_t window_frames = r.txFrames + r.rxFrames;
    check(static_cast<std::uint64_t>(faultsInjected(t, "fault")) >=
              window_frames / 100,
          "storm intensity below 1% of frames");

    // Wire faults: injected == dropped at the MAC, class by class.
    check(t.value("fault.wire.crc_injected") == rx.crcDrops(),
          "CRC injections != MAC CRC drops");
    check(t.value("fault.wire.trunc_injected") == rx.truncatedDrops(),
          "truncation injections != MAC truncation drops");
    check(t.value("fault.wire.runt_injected") == rx.runtDrops(),
          "runt injections != MAC runt drops");

    // Memory faults: each one became a retry or a drop, immediately.
    check(t.value("fault.mem.faults_injected") ==
              t.value("fault.mem.retries") + t.value("fault.mem.drops"),
          "memory faults != retries + drops");

    // Poison: skips trail the marks by at most the in-flight slots.
    double poisoned = t.value("fault.poison.injected");
    double skips = t.value("fault.poison.skips");
    check(skips <= poisoned, "more poison skips than poisoned frames");
    check(poisoned - skips <= nic.config().firmware.txSlots,
          "unskipped poisoned frames exceed the in-flight window");
    check(tx.framesSkipped() <= skips,
          "MAC skipped more frames than the firmware marked");

    // Doorbells: losses happened and the host retry path engaged.
    check(t.value("fault.doorbell.lost") > 0,
          "no doorbells lost during storm");
    check(t.value("fault.doorbell.retries") > 0,
          "no doorbell retries fired");

    // The MAC's fault subtree mirrors its drop counters.
    check(t.value("fault.macRx.crc_drops") ==
              static_cast<double>(rx.crcDrops()),
          "stat tree fault.macRx.crc_drops mismatch");

    // The firmware watchdog sampled and saw no stalls: degraded, not
    // stuck.
    bool wd = t.has("fault.watchdog.checks");
    check(wd && t.value("fault.watchdog.checks") > 0,
          "watchdog never sampled");
    check(wd && t.value("fault.watchdog.stalls") == 0,
          "watchdog flagged a core stall during the storm");
}

} // namespace

int
main(int argc, char **argv)
{
    quick = obs::hasFlag(argc, argv, "--quick");
    Tick warmup = warmupWindow();
    Tick measure = measureWindow();

    std::printf("Fault-storm soak: %u flows/direction duplex, "
                "6 cores @ 200 MHz\n\n",
                flowsPerDirection());

    obs::BenchReport report("fault_storm");
    auto addRow = [&](const char *name, NicController &nic,
                      const NicResults &r, const char *storm_window) {
        obs::json::Value cfg = obs::json::Value::object();
        cfg.set("flowsPerDirection", flowsPerDirection());
        cfg.set("stormWindow", storm_window);
        obs::json::Value m = nicRunMetrics(r);
        m.set("fault", faultMetrics(nic));
        report.addRow(name, std::move(cfg), std::move(m));
    };

    // Row 1: the baseline.  No fault plan, no hooks, nothing to
    // account for.
    NicConfig base = stormConfig();
    NicController baseline(base);
    NicResults r0 = baseline.run(warmup, measure);
    checkNoCorruption(baseline, r0, "fault_free");
    check(baseline.statTree().findGroup("fault") == nullptr,
          "fault hooks present on a disabled plan");
    addRow("fault_free", baseline, r0, "none");

    // Row 2: the storm rages for the whole run.  The NIC sheds the
    // damaged work and keeps every delivered byte intact.
    NicConfig stormy = stormConfig();
    armStorm(stormy.faults, 0, 0);
    NicController storm(stormy);
    NicResults r1 = storm.run(warmup, measure);
    checkNoCorruption(storm, r1, "storm");
    checkAccounting(storm, r1);
    check(r1.totalUdpGbps > 0.5 * r0.totalUdpGbps,
          "storm throughput collapsed (graceful degradation failed)");
    addRow("storm", storm, r1, "whole run");

    // Row 3: the storm ends with the warmup; the measured window is
    // the bounded recovery period.
    NicConfig healing = stormConfig();
    armStorm(healing.faults, 0, warmup);
    NicController recovery(healing);
    NicResults r2 = recovery.run(warmup, measure);
    checkNoCorruption(recovery, r2, "recovery");
    check(r2.totalUdpGbps >= 0.95 * r0.totalUdpGbps,
          "post-storm throughput below 95% of the fault-free rate");
    addRow("recovery", recovery, r2, "warmup only");

    std::printf("\nrecovery: %.2f Gb/s vs fault-free %.2f Gb/s "
                "(%.1f%%)\n",
                r2.totalUdpGbps, r0.totalUdpGbps,
                100.0 * r2.totalUdpGbps / r0.totalUdpGbps);

    if (auto path = obs::jsonPathFromArgs(argc, argv, "fault_storm")) {
        report.write(*path);
        std::printf("wrote %s (%zu rows)\n", path->c_str(),
                    report.rows());
    }

    if (failures) {
        std::printf("\n%u contract violation(s)\n", failures);
        return 1;
    }
    std::printf("\nall degradation contracts held\n");
    return 0;
}
