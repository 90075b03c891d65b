/**
 * @file
 * Virtual-function isolation soak: blast-radius proof for the vnic
 * subsystem (DESIGN.md §13).
 *
 * Three rows on the same 6-core 200 MHz NIC:
 *
 *   solo_victim    a rate-contracted tenant (2 Gb/s tx ceiling) runs
 *                  alone: its solo goodput is the isolation baseline
 *   storm_neighbor the same victim shares the NIC with an unlimited
 *                  aggressor whose tenant-private fault plan injects
 *                  >= 1% wire/memory/doorbell/poison faults for the
 *                  whole run
 *   weighted_fair  three backlogged unlimited tenants at DRR weights
 *                  1:2:4 split the transmit path
 *
 * The soak asserts the isolation contracts and exits nonzero on any
 * violation:
 *
 *   - the victim's measured tx and rx goodput under the neighbor
 *     storm stay >= 95% of its solo baseline (bounded blast radius)
 *   - the victim's fault counters stay exactly zero: a storm armed on
 *     one tenant never injects into -- or consumes randomness from --
 *     another tenant's streams
 *   - the aggressor's faults are fully accounted per tenant (memory
 *     faults == retries + drops; wire injections == MAC drops class
 *     by class; poison skips trail marks by at most the in-flight
 *     window) and zero corrupted payloads reach any validator
 *   - the weighted row's delivered tx shares match the DRR weights
 *     within 5% relative error, and per-VF attribution is complete
 *     (the per-tenant frame counts sum to the run totals)
 *
 * --json[=path] writes a tengig-bench-v1 document (default
 * BENCH_vf_isolation.json); --quick shrinks flows and windows for the
 * ctest smoke run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "vnic/vnic.hh"

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
flowsPerVf()
{
    return quick ? 4 : 8;
}

constexpr double victimTxGbps = 2.0;
constexpr double victimRxRate = 0.15; //!< fraction of line rate
constexpr double aggressorRxRate = 0.35;

NicConfig
vnicBase()
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = 200.0;
    // Keep the shared host send ring shallow: a deep ring is one long
    // FIFO whose residence time (~1.2 ms at 1024 frames) dwarfs the
    // measurement window, so the window would measure the warmup-era
    // ring contents instead of steady-state arbitration.  128 frames
    // (~150 us residence) reaches steady state well inside warmup.
    cfg.sendRingFrames = 128;
    // The VFs own the workload.
    cfg.txTraffic = TrafficProfile{};
    cfg.rxTraffic = TrafficProfile{};
    return cfg;
}

VfConfig
victimVf()
{
    VfConfig v;
    v.name = "victim";
    v.weight = 1.0;
    v.txRateGbps = victimTxGbps;
    v.txTraffic = TrafficProfile::uniform(
        flowsPerVf(), SizeModel::fixed(1472), ArrivalModel::paced(),
        1.0, 0x71c71);
    v.rxTraffic = TrafficProfile::uniform(
        flowsPerVf(), SizeModel::fixed(1472), ArrivalModel::paced(),
        victimRxRate, 0x71c72);
    return v;
}

/** The neighbor: no contracts, saturating tx, and a private storm at
 *  >= 1% of frames across every fault class. */
VfConfig
aggressorVf()
{
    VfConfig v;
    v.name = "aggressor";
    v.weight = 1.0;
    v.txTraffic = TrafficProfile::uniform(
        flowsPerVf(), SizeModel::fixed(1472), ArrivalModel::paced(),
        1.0, 0xa66e1);
    v.rxTraffic = TrafficProfile::uniform(
        flowsPerVf(), SizeModel::fixed(1472), ArrivalModel::paced(),
        aggressorRxRate, 0xa66e2);
    v.faults.wireCrcRate = 0.010;
    v.faults.wireTruncateRate = 0.005;
    v.faults.wireRuntRate = 0.005;
    v.faults.txPoisonRate = 0.010;
    v.faults.memFaultRate = 0.004;
    v.faults.doorbellDropRate = 0.050;
    v.faults.watchdogCycles = 50000; // 250 us at 200 MHz
    return v;
}

/** The stat-tree name of @p vf's subtree (vf.<name>.*). */
std::string
vfName(const VnicMux &mux, unsigned vf)
{
    std::string name = mux.vfConfig(vf).name;
    if (name.empty()) {
        name = "vf";
        name += std::to_string(vf);
    }
    return name;
}

/** One VF's delivery counters, read off vf.<name>.* at a window edge. */
struct VfCounts
{
    double txPosted = 0;
    double txFrames = 0;
    double txPayload = 0;
    double rxFrames = 0;
    double rxPayload = 0;
};

/** Per-VF delivered-goodput deltas over the measurement window. */
struct VfWindow
{
    std::vector<VfCounts> start;
    std::vector<VfCounts> end;

    std::uint64_t
    txFrames(unsigned vf) const
    {
        return static_cast<std::uint64_t>(end[vf].txFrames -
                                          start[vf].txFrames);
    }

    std::uint64_t
    rxFrames(unsigned vf) const
    {
        return static_cast<std::uint64_t>(end[vf].rxFrames -
                                          start[vf].rxFrames);
    }

    double
    txGbps(unsigned vf, Tick measure) const
    {
        double secs = static_cast<double>(measure) / tickPerSec;
        return (end[vf].txPayload - start[vf].txPayload) *
               8.0 / secs / 1e9;
    }

    double
    rxGbps(unsigned vf, Tick measure) const
    {
        double secs = static_cast<double>(measure) / tickPerSec;
        return (end[vf].rxPayload - start[vf].rxPayload) *
               8.0 / secs / 1e9;
    }
};

std::vector<VfCounts>
snapshot(NicController &nic)
{
    const obs::StatGroup &t = nic.statTree();
    const VnicMux &mux = *nic.vnicMux();
    std::vector<VfCounts> out;
    for (unsigned vf = 0; vf < mux.vfCount(); ++vf) {
        std::string p = "vf." + vfName(mux, vf);
        VfCounts c;
        c.txPosted = t.value(p + ".tx.posted");
        c.txFrames = t.value(p + ".tx.frames");
        c.txPayload = t.value(p + ".tx.payloadBytes");
        c.rxFrames = t.value(p + ".rx.frames");
        c.rxPayload = t.value(p + ".rx.payloadBytes");
        out.push_back(c);
    }
    return out;
}

/**
 * Run one vnic config, snapshotting per-VF counts at both window
 * edges.  The opening snapshot is a Stats-priority event at the warmup
 * tick, so it follows every data-path event there.
 */
NicResults
runVnic(NicController &nic, VfWindow &w, Tick warmup = warmupWindow(),
        Tick measure = measureWindow())
{
    nic.eventQueue().schedule(warmup, [&] { w.start = snapshot(nic); },
                              EventPriority::Stats);
    NicResults r = nic.run(warmup, measure);
    w.end = snapshot(nic);
    return r;
}

obs::json::Value
vfMetrics(NicController &nic, const VfWindow &w, Tick measure)
{
    using obs::json::Value;
    Value all = Value::object();
    const obs::StatGroup &t = nic.statTree();
    const VnicMux &mux = *nic.vnicMux();
    for (unsigned vf = 0; vf < mux.vfCount(); ++vf) {
        std::string name = vfName(mux, vf);
        std::string p = "vf." + name;
        Value v = Value::object();
        v.set("txGbps", w.txGbps(vf, measure));
        v.set("rxGbps", w.rxGbps(vf, measure));
        v.set("txFrames", w.txFrames(vf));
        v.set("rxFrames", w.rxFrames(vf));
        v.set("txPosted", w.end[vf].txPosted - w.start[vf].txPosted);
        v.set("rxPoliced", t.value(p + ".rx.policed"));
        v.set("commitStalls", t.value(p + ".tx.commit_stalls"));
        v.set("admitDefers", t.value(p + ".tx.admit_defers"));
        v.set("doorbellRings", t.value(p + ".doorbell.rings"));
        if (t.findGroup("fault"))
            v.set("faultsInjected", faultsInjected(t, p + ".fault"));
        all.set(name, std::move(v));
    }
    return all;
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

/** The aggressor's storm is real, fully accounted to its tenant, and
 *  invisible from the victim's counters. */
void
checkBlastRadius(NicController &nic)
{
    const obs::StatGroup &t = nic.statTree();
    check(t.findGroup("fault") != nullptr,
          "fault stat group missing on the storm run");
    if (!t.findGroup("fault"))
        return;
    check(t.has("vf.victim.fault.wire.crc_injected") &&
              t.has("vf.aggressor.fault.wire.crc_injected"),
          "expected one fault tenant per VF");

    // The victim's streams were never even consulted.
    check(faultsInjected(t, "vf.victim.fault") == 0,
          "faults leaked into the victim tenant");
    check(t.value("vf.victim.fault.mem.retries") == 0 &&
              t.value("vf.victim.fault.mem.drops") == 0,
          "recovery actions charged to the victim tenant");
    check(t.value("vf.victim.fault.doorbell.retries") == 0,
          "doorbell retries charged to the victim tenant");

    // The aggressor's really happened, at soak intensity...
    check(faultsInjected(t, "vf.aggressor.fault") > 0,
          "aggressor storm never fired");
    check(t.value("vf.aggressor.fault.doorbell.lost") > 0,
          "no aggressor doorbells lost during the storm");

    // ...and every injected fault is matched by its recovery action.
    check(t.value("vf.aggressor.fault.mem.faults_injected") ==
              t.value("vf.aggressor.fault.mem.retries") +
                  t.value("vf.aggressor.fault.mem.drops"),
          "aggressor memory faults != retries + drops");
    MacRx &rx = nic.macRxAssist();
    check(t.value("fault.wire.crc_injected") == rx.crcDrops(),
          "CRC injections != MAC CRC drops");
    check(t.value("fault.wire.trunc_injected") == rx.truncatedDrops(),
          "truncation injections != MAC truncation drops");
    check(t.value("fault.wire.runt_injected") == rx.runtDrops(),
          "runt injections != MAC runt drops");
    double poisoned = t.value("vf.aggressor.fault.poison.injected");
    double skips = t.value("vf.aggressor.fault.poison.skips");
    check(skips <= poisoned, "more poison skips than poisoned frames");
    check(poisoned - skips <= nic.config().firmware.txSlots,
          "unskipped poisoned frames exceed the in-flight window");
}

} // namespace

int
main(int argc, char **argv)
{
    quick = obs::hasFlag(argc, argv, "--quick");

    std::printf("VF isolation soak: %u flows/VF, 6 cores @ 200 MHz, "
                "victim tx contract %.1f Gb/s\n\n",
                flowsPerVf(), victimTxGbps);

    obs::BenchReport report("vf_isolation");
    auto addRow = [&](const char *name, NicController &nic,
                      const NicResults &r, const VfWindow &w,
                      Tick measure = 0) {
        if (!measure)
            measure = measureWindow();
        obs::json::Value cfg = obs::json::Value::object();
        cfg.set("vfs", nic.vnicMux()->vfCount());
        cfg.set("flowsPerVf", flowsPerVf());
        cfg.set("victimTxGbps", victimTxGbps);
        obs::json::Value m = nicRunMetrics(r);
        m.set("vf", vfMetrics(nic, w, measure));
        report.addRow(name, std::move(cfg), std::move(m));
    };

    // Row 1: the victim alone -- the isolation baseline.
    NicConfig soloCfg = vnicBase();
    soloCfg.vfs = {victimVf()};
    NicController solo(soloCfg);
    VfWindow soloW;
    NicResults r0 = runVnic(solo, soloW);
    checkNoCorruption(solo, r0, "solo_victim");
    double soloTx = soloW.txGbps(0, measureWindow());
    double soloRx = soloW.rxGbps(0, measureWindow());
    // The contract is a ceiling and the pipeline has headroom for
    // 2 Gb/s, so the solo victim must be close to (and never above
    // by more than the burst slack) its contracted rate.
    check(soloTx > 0.9 * victimTxGbps,
          "solo victim tx far below its contracted rate");
    check(soloTx < 1.1 * victimTxGbps,
          "solo victim tx above its contracted ceiling");
    addRow("solo_victim", solo, r0, soloW);

    // Row 2: the same victim next to a storming, saturating neighbor.
    NicConfig stormCfg = vnicBase();
    stormCfg.vfs = {victimVf(), aggressorVf()};
    NicController storm(stormCfg);
    VfWindow stormW;
    NicResults r1 = runVnic(storm, stormW);
    checkNoCorruption(storm, r1, "storm_neighbor");
    checkBlastRadius(storm);
    double stormTx = stormW.txGbps(0, measureWindow());
    double stormRx = stormW.rxGbps(0, measureWindow());
    std::printf("  victim tx %.3f Gb/s (solo %.3f), "
                "rx %.3f Gb/s (solo %.3f)\n",
                stormTx, soloTx, stormRx, soloRx);
    check(stormTx >= 0.95 * soloTx,
          "victim tx under neighbor storm below 95% of solo");
    check(stormRx >= 0.95 * soloRx,
          "victim rx under neighbor storm below 95% of solo");
    addRow("storm_neighbor", storm, r1, stormW);

    // Row 3: three backlogged unlimited tenants at weights 1:2:4.
    NicConfig fairCfg = vnicBase();
    const double weights[3] = {1.0, 2.0, 4.0};
    for (unsigned i = 0; i < 3; ++i) {
        VfConfig v;
        v.name = "w";
        v.name += std::to_string(static_cast<int>(weights[i]));
        v.weight = weights[i];
        v.txTraffic = TrafficProfile::uniform(
            flowsPerVf(), SizeModel::fixed(1472),
            ArrivalModel::paced(), 1.0, 0xfa1 + i);
        fairCfg.vfs.push_back(v);
    }
    NicController fair(fairCfg);
    VfWindow fairW;
    NicResults r2 = runVnic(fair, fairW);
    checkNoCorruption(fair, r2, "weighted_fair");
    std::uint64_t totalFrames = 0;
    for (unsigned vf = 0; vf < 3; ++vf)
        totalFrames += fairW.txFrames(vf);
    check(totalFrames == r2.txFrames,
          "per-VF frame attribution does not sum to the run total");
    for (unsigned vf = 0; vf < 3; ++vf) {
        double share = static_cast<double>(fairW.txFrames(vf)) /
                       static_cast<double>(totalFrames);
        double target = weights[vf] / 7.0;
        std::printf("  vf %s: share %.4f (target %.4f)\n",
                    fair.vnicMux()->vfConfig(vf).name.c_str(), share,
                    target);
        check(share >= 0.95 * target && share <= 1.05 * target,
              "weighted tx share off its DRR weight by more than 5%");
    }
    addRow("weighted_fair", fair, r2, fairW);

    // Row 4: dozens of tenants -- 32 backlogged VFs in four weight
    // classes (1:2:3:4, eight tenants each) share the transmit path.
    // DRR serves whole frames, so a tenant's delivered count can sit a
    // frame or two off its ideal share; the gate is 5% relative with
    // that quantization floor made explicit.
    NicConfig manyCfg = vnicBase();
    // 32 tenants over a 128-slot ring is only 4 in-flight frames per
    // tenant; double the ring so a high-weight tenant's share is set
    // by the arbiter, not by posting starvation (residence ~300 us,
    // still well inside warmup).
    manyCfg.sendRingFrames = 256;
    constexpr unsigned manyVfs = 32;
    double manyWeightTotal = 0.0;
    for (unsigned i = 0; i < manyVfs; ++i) {
        VfConfig v;
        double w = 1.0 + static_cast<double>(i % 4);
        v.name = "t";
        v.name += std::to_string(i);
        v.weight = w;
        manyWeightTotal += w;
        v.txTraffic = TrafficProfile::uniform(
            flowsPerVf(), SizeModel::fixed(1472),
            ArrivalModel::paced(), 1.0, 0x3e0a1 + i);
        manyCfg.vfs.push_back(v);
    }
    NicController many(manyCfg);
    VfWindow manyW;
    // Share convergence needs a few thousand delivered frames (a
    // weight-1 tenant owns only 1/80 of the wire), so this row keeps
    // the full windows even under --quick.
    NicResults r3 = runVnic(many, manyW, 2 * tickPerMs, 4 * tickPerMs);
    checkNoCorruption(many, r3, "many_tenants");
    std::uint64_t manyFrames = 0;
    for (unsigned vf = 0; vf < manyVfs; ++vf)
        manyFrames += manyW.txFrames(vf);
    check(manyFrames == r3.txFrames,
          "32-tenant frame attribution does not sum to the run total");
    double worstRel = 0.0;
    for (unsigned vf = 0; vf < manyVfs; ++vf) {
        double share = static_cast<double>(manyW.txFrames(vf)) /
                       static_cast<double>(manyFrames);
        double target = manyCfg.vfs[vf].weight / manyWeightTotal;
        double slack = std::max(0.05 * target,
                                2.0 / static_cast<double>(manyFrames));
        double rel = std::abs(share - target) / target;
        if (rel > worstRel)
            worstRel = rel;
        check(share >= target - slack && share <= target + slack,
              "32-tenant tx share off its DRR weight by more than 5%");
    }
    std::printf("  32 tenants: %llu frames, worst share error %.2f%%\n",
                static_cast<unsigned long long>(manyFrames),
                100.0 * worstRel);
    addRow("many_tenants", many, r3, manyW, 4 * tickPerMs);

    if (auto path = obs::jsonPathFromArgs(argc, argv, "vf_isolation")) {
        report.write(*path);
        std::printf("wrote %s (%zu rows)\n", path->c_str(),
                    report.rows());
    }

    if (failures) {
        std::printf("\n%u isolation violation(s)\n", failures);
        return 1;
    }
    std::printf("\nall isolation contracts held\n");
    return 0;
}
