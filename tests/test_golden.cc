/**
 * @file
 * Golden-fingerprint suite (DESIGN.md §6).
 *
 * Pins the simulator's observable behaviour on every bench workload
 * shape to committed FNV-1a fingerprints, so a host-speed change is
 * checked against recorded behaviour rather than against a second code
 * path kept alive for comparison.  Each shape runs once and hashes
 * three components:
 *
 *   - "results": every NicResults field, integers and the bit
 *     patterns of doubles (the claim is bit-identical execution, not
 *     tolerance-close);
 *   - "stats":   the registered stat tree serialized to JSON;
 *   - "trace":   the Chrome trace-event timeline (lane names, every
 *     span, instant and counter sample).
 *
 * The fleet shape has no Chrome trace; its third component, "wire",
 * folds what the fleet's thread-count determinism test compares
 * besides results and stat trees: the per-node wire and inject hashes
 * and the switch's forwarded / dropped / rejected counts.
 *
 * On a mismatch the failure names the shape, the component and both
 * fingerprints, and the current stat-tree JSON is written to
 * golden/<shape>.stats.json under the test's build directory (and the
 * Chrome trace to golden/<shape>.trace.json) for diffing against a
 * build that still matches.  The stats and trace fingerprints are the
 * plain FNV-1a of those JSON texts.
 *
 * Updating a fingerprint is a behaviour change: edit the constant in
 * the table below and justify the edit in CHANGES.md.
 */

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "fleet/fleet.hh"
#include "nic/controller.hh"
#include "obs/trace_log.hh"

using namespace tengig;

namespace {

/** Committed fingerprints; see the file comment before editing. */
struct Golden
{
    const char *shape;
    std::uint64_t results;
    std::uint64_t stats;
    std::uint64_t trace; //!< "wire" for the fleet shape
};

constexpr Golden goldens[] = {
    {"DefaultDuplex", 0xe7280179e7fd7419ull, 0xe9c56661414d0ea3ull,
     0x9f59b0ff6f6d2f54ull},
    {"ImixEightFlows", 0x7f7d4ef8c3809f7full, 0x1f7ae50ac7904746ull,
     0xe8f1c82e84b2443eull},
    {"ImixRmw", 0xa7150c112f6361e3ull, 0x57513ab720009d22ull,
     0xd3f455418312ea59ull},
    {"TaskLevelDuplex", 0x05cd1ae2f240e0d3ull, 0x6cd172d0caa27a39ull,
     0x7c2dd7af9d9927cdull},
    {"VfIsolationStorm", 0x8390311d97b63316ull, 0x8408f1c6665e0442ull,
     0x1939df11a126b425ull},
    {"FaultStorm", 0x20e091f404dfa0ecull, 0x102938fd9116e257ull,
     0x6554f9d4a0738de9ull},
    {"FleetRing", 0x1222d16764a8d935ull, 0x5b1918f4d6e191dfull,
     0x95d8032d54da1bb8ull},
    {"QuietReceive", 0xab97c55beb60635eull, 0xd4147da20afa1fb4ull,
     0x5a9e2c7027671c47ull},
    {"TsoDuplex", 0x1668a05526d89aa6ull, 0xd8b4ba660fb90e1full,
     0xad4b2bdeda677831ull},
};

const Golden &
golden(const std::string &shape)
{
    for (const Golden &g : goldens)
        if (shape == g.shape)
            return g;
    ADD_FAILURE() << "no golden entry for shape " << shape;
    static const Golden none{"", 0, 0, 0};
    return none;
}

/** 64-bit FNV-1a. */
class Fnv
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }

    void text(const std::string &s) { bytes(s.data(), s.size()); }

    /** Little-endian, so the value is host-independent. */
    void
    u64(std::uint64_t v)
    {
        unsigned char b[8];
        for (unsigned i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(b, sizeof b);
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Fold every NicResults field, in declaration order. */
void
hashResults(Fnv &f, const NicResults &r)
{
    f.u64(r.measuredTicks);
    f.f64(r.txUdpGbps);
    f.f64(r.rxUdpGbps);
    f.f64(r.totalUdpGbps);
    f.f64(r.txFps);
    f.f64(r.rxFps);
    f.u64(r.txFrames);
    f.u64(r.rxFrames);
    f.u64(r.rxDropped);
    f.u64(r.errors);
    f.u64(r.integrityErrors);
    f.u64(r.orderGaps);
    f.u64(r.orderDuplicates);
    f.u64(r.flowsValidated);
    f.f64(r.aggregateIpc);
    f.u64(r.coreIpc.size());
    for (double ipc : r.coreIpc)
        f.f64(ipc);

    const CoreStats &c = r.coreTotals;
    for (std::uint64_t v :
         {c.instructions, c.executeCycles, c.imissCycles,
          c.loadStallCycles, c.conflictCycles, c.pipelineCycles,
          c.idleCycles, c.invocations, c.idlePolls})
        f.u64(v);
    for (const FirmwareProfile::Bucket &b : r.profile.buckets) {
        f.u64(b.instructions);
        f.u64(b.memAccesses);
        f.u64(b.cycles);
    }

    const NicResults::LatencySummary &l = r.rxLatency;
    f.u64(l.count);
    for (double v : {l.meanUs, l.p50Us, l.p95Us, l.p99Us, l.maxUs})
        f.f64(v);

    f.f64(r.spadGbps);
    f.f64(r.sdramGbps);
    f.f64(r.imemGbps);
    f.f64(r.imemUtilization);
}

std::uint64_t
fnvText(const std::string &s)
{
    Fnv f;
    f.text(s);
    return f.value();
}

/** Compare one shape's fingerprints; on a mismatch dump its stat tree
 *  and, when @p trace_json is given, its Chrome trace. */
void
expectGolden(const std::string &shape, const char *third,
             std::uint64_t results, const std::string &stats,
             std::uint64_t trace, const std::string *trace_json = nullptr)
{
    const Golden &g = golden(shape);
    struct Component
    {
        const char *name;
        std::uint64_t want;
        std::uint64_t got;
    };
    const Component comps[] = {{"results", g.results, results},
                               {"stats", g.stats, fnvText(stats)},
                               {third, g.trace, trace}};
    bool mismatch = false;
    for (const Component &c : comps) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "%s: %s fingerprint changed: golden 0x%016" PRIx64
                      ", now 0x%016" PRIx64,
                      shape.c_str(), c.name, c.want, c.got);
        EXPECT_EQ(c.want, c.got) << msg;
        mismatch = mismatch || c.want != c.got;
    }
    if (!mismatch)
        return;
    std::filesystem::path dir =
        std::filesystem::path(TENGIG_GOLDEN_DUMP_DIR) / "golden";
    std::filesystem::create_directories(dir);
    std::filesystem::path out = dir / (shape + ".stats.json");
    std::ofstream(out) << stats;
    ADD_FAILURE() << shape << ": current stat tree written to " << out;
    if (trace_json) {
        out = dir / (shape + ".trace.json");
        std::ofstream(out) << *trace_json;
        ADD_FAILURE() << shape << ": current trace written to " << out;
    }
}

constexpr Tick warmupTicks = tickPerMs / 4;
constexpr Tick windowTicks = tickPerMs / 2;

/** Build @p cfg, attach a trace, and fingerprint what @p run returns. */
template <typename Run>
void
runShape(const std::string &shape, const NicConfig &cfg, Run run)
{
    NicController nic(cfg);
    obs::TraceLog log;
    nic.attachTrace(log);
    NicResults r = run(nic);
    Fnv res;
    hashResults(res, r);
    std::string trace = log.str();
    expectGolden(shape, "trace", res.value(),
                 nic.statTree().toJson().dump(2), fnvText(trace), &trace);
}

void
runShape(const std::string &shape, const NicConfig &cfg)
{
    runShape(shape, cfg, [](NicController &nic) {
        return nic.run(warmupTicks, windowTicks);
    });
}

/** The vf_isolation quick row shapes (victim + storming aggressor). */
NicConfig
vnicStormConfig()
{
    NicConfig cfg;
    cfg.sendRingFrames = 128;

    VfConfig victim;
    victim.name = "victim";
    victim.weight = 1.0;
    victim.txRateGbps = 2.0;
    victim.txTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0, 0x71c71);
    victim.rxTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.15, 0x71c72);

    VfConfig aggressor;
    aggressor.name = "aggressor";
    aggressor.weight = 1.0;
    aggressor.txTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0, 0xa66e1);
    aggressor.rxTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.35, 0xa66e2);
    aggressor.faults.wireCrcRate = 0.010;
    aggressor.faults.wireTruncateRate = 0.005;
    aggressor.faults.wireRuntRate = 0.005;
    aggressor.faults.txPoisonRate = 0.010;
    aggressor.faults.memFaultRate = 0.004;
    aggressor.faults.doorbellDropRate = 0.050;
    aggressor.faults.watchdogCycles = 50000;

    cfg.vfs = {victim, aggressor};
    return cfg;
}

/** The fault_storm quick row shape (storm raging the whole run). */
NicConfig
faultStormConfig()
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::uniform(
        8, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0, 0xbe7c);
    cfg.rxTraffic = TrafficProfile::uniform(
        8, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0, 0xbe7c);
    cfg.faults.wireCrcRate = 0.010;
    cfg.faults.wireTruncateRate = 0.005;
    cfg.faults.wireRuntRate = 0.005;
    cfg.faults.txPoisonRate = 0.010;
    cfg.faults.memFaultRate = 0.004;
    cfg.faults.doorbellDropRate = 0.050;
    cfg.faults.watchdogCycles = 50000;
    return cfg;
}

/** bench/fleet's node workload: full-size paced flows each way. */
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

} // namespace

/// The paper defaults: 6 cores @ 200 MHz, frame-level firmware,
/// 1472 B UDP each way, one paced flow per direction.
TEST(Golden, DefaultDuplex)
{
    runShape("DefaultDuplex", NicConfig{});
}

TEST(Golden, ImixEightFlows)
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::imixPoisson(8, 1.0, 0x51);
    cfg.rxTraffic = TrafficProfile::imixPoisson(8, 1.0, 0x52);
    runShape("ImixEightFlows", cfg);
}

/// The proposed design with RMW ordering under 64-flow IMIX: the most
/// scratchpad contention and the only RMW-ordering shape here.
TEST(Golden, ImixRmw)
{
    NicConfig cfg;
    cfg.cpuMhz = 166.0;
    cfg.firmware.rmwEnhanced = true;
    cfg.txTraffic = TrafficProfile::imixPoisson(64, 1.0, 0x6401);
    cfg.rxTraffic = TrafficProfile::imixPoisson(64, 1.0, 0x6402);
    runShape("ImixRmw", cfg);
}

TEST(Golden, TaskLevelDuplex)
{
    NicConfig cfg;
    cfg.taskLevelFirmware = true;
    runShape("TaskLevelDuplex", cfg);
}

/// The paper defaults with deferred segmentation: one header-template
/// and payload descriptor pair per four transmit frames.
TEST(Golden, TsoDuplex)
{
    NicConfig cfg;
    cfg.firmware.tsoSegments = 4;
    runShape("TsoDuplex", cfg);
}

TEST(Golden, VfIsolationStorm)
{
    runShape("VfIsolationStorm", vnicStormConfig());
}

TEST(Golden, FaultStorm)
{
    runShape("FaultStorm", faultStormConfig());
}

/// A mostly idle NIC: one core at 200 MHz receiving 20 sparse
/// frames, so nearly all core cycles are idle polls of the dispatch
/// loop.
TEST(Golden, QuietReceive)
{
    NicConfig cfg;
    cfg.cores = 1;
    cfg.cpuMhz = 200.0;
    cfg.rxOfferedRate = 0.02;
    runShape("QuietReceive", cfg, [](NicController &nic) {
        return nic.runRxOnly(20, 4 * tickPerMs);
    });
}

/// A 4-node forwarding ring on 2 worker threads (bench/fleet --quick
/// timing).  Results are thread-count independent, so the thread count
/// only decides which path computes them.
TEST(Golden, FleetRing)
{
    FleetConfig fc = FleetConfig::uniform(fleetNode(), 4, true);
    fc.threads = 2;
    fc.syncWindowTicks = 10 * tickPerUs;
    fc.sw.fabricLatencyTicks = 10 * tickPerUs;
    fc.warmupTicks = 100 * tickPerUs;
    fc.measureTicks = 200 * tickPerUs;
    FleetRunner fleet(fc);
    FleetResults r = fleet.run();

    Fnv res;
    Fnv wire;
    obs::json::Value trees = obs::json::Value::array();
    for (unsigned i = 0; i < r.nic.size(); ++i) {
        hashResults(res, r.nic[i]);
        wire.u64(r.wireHash[i]);
        wire.u64(r.injectHash[i]);
        trees.push(fleet.node(i).statTree().toJson());
    }
    wire.u64(r.framesForwarded);
    wire.u64(r.framesDropped);
    wire.u64(r.injectRejected);
    expectGolden("FleetRing", "wire", res.value(), trees.dump(2),
                 wire.value());
}
