/**
 * @file
 * Benchmark runner: runs one named workload through the public
 * NicController / FleetRunner API and prints one JSON document of raw
 * measurements to stdout.
 *
 *   nicbench --workload NAME --seed N --seconds S [--trace 0|1]
 *
 * The workload is repeated, each repeat from construction to
 * destruction, until S host seconds have passed (at least three
 * repeats).  Each repeat records host time around the calls this file
 * makes (construction, startRun, the warmup and window runUntil
 * slices, destruction) and an "outcome": the simulated results and
 * the per-layer work counts read from the stat trees and component
 * accessors.  Outcomes are deterministic; run.py checks that every
 * repeat produced the same one.
 *
 * Repeats are bracketed by bursts of the reference-clock kernel
 * (refclock.hh), on as many threads as the workload's event loop.
 * Each repeat records the mean of the two bursts around it, from which
 * run.py converts its window to reference seconds.
 *
 * With --trace 1 one more repeat runs after the timed ones (on the
 * fleet, followed by a 1-thread rerun of the same fleet) and records a
 * span (name, start, end, parent) around each of those calls.  Spans
 * stay in memory and are printed with the document.  The traced repeat
 * never calls NicController::attachTrace, whose occupancy sampler
 * would add events to the run being timed.
 *
 * Counting from outside: beginMeasurement() resets only the core and
 * profile stats (and the rx latency histogram), so every other counter
 * is snapshotted when the window opens and subtracted when it closes.
 * FleetRunner::run() opens the window internally, so on the fleet
 * workload the counters span the whole run() instead (warmup and
 * window), which run.py normalises by frames delivered over the same
 * span.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "refclock.hh"
#include "nic/controller.hh"
#include "obs/json.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

using namespace tengig;
using obs::json::Value;

namespace {

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Span recorder for the traced repeat.  Disabled, it records nothing
 * and allocates nothing, so the timed repeats run the same code path.
 */
class Spans
{
  public:
    explicit Spans(bool enabled) : on(enabled), origin(hostNow()) {}

    /** Open a span; pass the returned id to close(). */
    int
    open(const char *name)
    {
        if (!on)
            return -1;
        int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, hostNow() - origin, 0.0, parent});
        int id = static_cast<int>(spans.size()) - 1;
        stack.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        if (!on)
            return;
        spans[id].end = hostNow() - origin;
        stack.pop_back();
    }

    Value
    toJson() const
    {
        Value a = Value::array();
        for (const Span &s : spans) {
            Value v = Value::object();
            v.set("name", s.name);
            v.set("start_s", s.start);
            v.set("end_s", s.end);
            v.set("parent", s.parent);
            a.push(std::move(v));
        }
        return a;
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent;
    };

    bool on;
    double origin;
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** RAII span around one call into a layer. */
class Scope
{
  public:
    Scope(Spans &s, const char *name) : spans(s), id(s.open(name)) {}
    ~Scope() { spans.close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &spans;
    int id;
};

/// Simulated lengths.  The window gives paper_duplex >= 1000 rx
/// latency samples, so its p99 has at least ten samples beyond it.
constexpr Tick warmupTicks = 500 * tickPerUs;
constexpr Tick nicWindowTicks = 2 * tickPerMs;
/// imix_rmw's goodput varies with the seed's frame-size draw; a longer
/// window keeps that seed-to-seed spread small.
constexpr Tick imixWindowTicks = 8 * tickPerMs;
constexpr Tick fleetWindowTicks = 2 * tickPerMs;
constexpr Tick sliceTicks = 100 * tickPerUs;

constexpr unsigned fleetNodes = 4;
constexpr unsigned fleetThreads = 2;
constexpr unsigned minRepeats = 3;

struct Workload
{
    std::string name;
    bool fleet = false;
    NicConfig nic;        //!< single-NIC config (fleet: node template)
    Tick window = nicWindowTicks;
};

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    std::uint64_t sm = seed;
    if (name == "paper_duplex") {
        // The defaults: 6 cores @ 200 MHz, frame-level firmware,
        // fixed 1472 B UDP each way, legacy single-stream path.
    } else if (name == "imix_rmw") {
        w.nic.cpuMhz = 166.0;
        w.nic.firmware.rmwEnhanced = true;
        w.nic.txTraffic = TrafficProfile::imixPoisson(64, 1.0,
                                                      splitmix64(sm));
        w.nic.rxTraffic = TrafficProfile::imixPoisson(64, 1.0,
                                                      splitmix64(sm));
        w.window = imixWindowTicks;
    } else if (name == "tasklevel_duplex") {
        w.nic.taskLevelFirmware = true;
    } else if (name == "fleet_ring") {
        // bench/fleet's node workload; per-node seeds come from the
        // benchmark seed in fleetConfig().
        w.fleet = true;
        w.nic.txTraffic = TrafficProfile::uniform(
            4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.6, 0);
        w.nic.rxTraffic = TrafficProfile::uniform(
            4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.35, 0);
        w.window = fleetWindowTicks;
    } else {
        fatal("unknown workload '", name, "' (paper_duplex, imix_rmw, "
              "tasklevel_duplex, fleet_ring)");
    }
    return w;
}

FleetConfig
fleetConfig(const Workload &w, std::uint64_t seed, unsigned threads)
{
    FleetConfig fc = FleetConfig::uniform(w.nic, fleetNodes, true);
    for (unsigned i = 0; i < fleetNodes; ++i) {
        std::uint64_t sm = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
        fc.nodes[i].txTraffic.seed = splitmix64(sm);
        fc.nodes[i].rxTraffic.seed = splitmix64(sm);
    }
    fc.threads = threads;
    fc.syncWindowTicks = 10 * tickPerUs;
    fc.sw.fabricLatencyTicks = 10 * tickPerUs;
    fc.warmupTicks = warmupTicks;
    fc.measureTicks = w.window;
    return fc;
}

using Counters = std::map<std::string, double>;

/** Work counts one NIC has accumulated so far, from its stat tree and
 *  component accessors.  Per-core and per-lock counts are summed. */
Counters
readCounters(NicController &nic)
{
    const obs::StatGroup &t = nic.statTree();
    Counters c;
    for (const char *p :
         {"spad.accesses", "spad.rmws", "spad.conflictCycles",
          "sdram.transferredBytes", "sdram.usefulBytes",
          "sdram.busyTicks", "dmaRead.commands", "dmaWrite.commands",
          "dmaRead.fifo_full_rejects", "dmaWrite.fifo_full_rejects",
          "macRx.drops", "macRx.frames", "macTx.frames",
          "link.txFrames", "link.rxFramesDelivered"})
        c[p] = t.value(p);
    c["opcache.hits"] = t.has("opcache.hits") ? t.value("opcache.hits")
                                              : 0.0;
    c["opcache.misses"] =
        t.has("opcache.misses") ? t.value("opcache.misses") : 0.0;
    double spins = 0;
    for (unsigned l = 0; l < numFwLocks; ++l)
        spins += t.value("fw.lock" + std::to_string(l) + ".spins");
    c["fw.lockSpins"] = spins;
    for (unsigned i = 0; i < nic.config().cores; ++i) {
        std::string core = "core" + std::to_string(i) + ".";
        for (const char *s :
             {"instructions", "invocations", "executeCycles",
              "imissCycles", "loadStallCycles", "conflictCycles",
              "pipelineCycles", "idleCycles"})
            c[std::string("core.") + s] += t.value(core + s);
    }
    c["gen.offered"] =
        static_cast<double>(nic.frameGenerator().framesOffered());
    c["gen.dropped"] =
        static_cast<double>(nic.frameGenerator().framesDropped());
    c["sim.events"] =
        static_cast<double>(nic.eventQueue().executedEvents());
    return c;
}

void
accumulateDelta(Counters &sum, const Counters &before,
                const Counters &after)
{
    for (const auto &[k, v] : after)
        sum[k] += v - before.at(k);
}

/** Values read once at the end of a run (not deltas). */
struct EndState
{
    double icacheMissRatioSum = 0; //!< summed over cores
    unsigned cores = 0;
    double hostMemMaterializations = 0;
    double sdramMaterializations = 0;
    double flowsSeen = 0;
    double latMinCount = -1; //!< fewest samples on any node
    double latOverflow = 0;  //!< summed over nodes
    double latP50Us = 0;     //!< worst node
    double latP99Us = 0;     //!< worst node
};

void
readEndState(NicController &nic, EndState &e)
{
    const obs::StatGroup &t = nic.statTree();
    for (unsigned i = 0; i < nic.config().cores; ++i)
        e.icacheMissRatioSum +=
            t.value("core" + std::to_string(i) + ".icache.missRatio");
    e.cores += nic.config().cores;
    e.hostMemMaterializations += t.value("hostMem.materializations");
    e.sdramMaterializations += t.value("sdram.materializations");
    for (const char *p : {"traffic.txFlowsSeen", "traffic.rxFlowsSeen"})
        if (t.has(p))
            e.flowsSeen += t.value(p);
    const stats::Histogram &h = t.histogram("latency.rx");
    double us = static_cast<double>(tickPerUs);
    double n = static_cast<double>(h.count());
    e.latMinCount = e.latMinCount < 0 ? n : std::min(e.latMinCount, n);
    e.latOverflow += static_cast<double>(h.overflow());
    e.latP50Us = std::max(e.latP50Us, h.p50() / us);
    e.latP99Us = std::max(e.latP99Us, h.p99() / us);
}

Value
toJson(const Counters &c)
{
    Value v = Value::object();
    for (const auto &[k, x] : c)
        v.set(k, x);
    return v;
}

/** Deterministic part of a repeat: compared across repeats. */
Value
outcomeJson(const std::vector<NicResults> &res, const Counters &delta,
            const EndState &e, double span_ticks)
{
    double gbps = 0, instr = 0, cycles = 0, window_frames = 0;
    double errors = 0;
    for (const NicResults &r : res) {
        gbps += r.totalUdpGbps;
        instr += static_cast<double>(r.coreTotals.instructions);
        cycles += static_cast<double>(r.coreTotals.totalCycles());
        window_frames += static_cast<double>(r.txFrames + r.rxFrames);
        errors += static_cast<double>(r.errors);
    }
    Value o = Value::object();
    o.set("sim_gbps", gbps);
    o.set("ipc_per_core", cycles > 0 ? instr / cycles : 0.0);
    o.set("window_frames", window_frames);
    o.set("span_ticks", span_ticks);
    o.set("errors", errors);
    o.set("counts", toJson(delta));
    o.set("icache_miss_ratio",
          e.cores ? e.icacheMissRatioSum / e.cores : 0.0);
    o.set("hostmem_materializations", e.hostMemMaterializations);
    o.set("sdram_materializations", e.sdramMaterializations);
    o.set("flows_seen", e.flowsSeen);
    o.set("lat_min_count", e.latMinCount);
    o.set("lat_overflow", e.latOverflow);
    o.set("lat_p50_us", e.latP50Us);
    o.set("lat_p99_us", e.latP99Us);
    return o;
}

/** Advance @p eq to @p until in fixed slices, one span per slice. */
void
runSliced(EventQueue &eq, Tick until, Spans &spans, const char *name)
{
    while (eq.curTick() < until) {
        Scope s(spans, name);
        eq.runUntil(std::min(eq.curTick() + sliceTicks, until));
    }
}

/** One single-NIC repeat, construction to destruction. */
Value
runNic(const Workload &w, Spans &spans)
{
    Scope top(spans, "repeat");
    double t0 = hostNow();
    std::unique_ptr<NicController> nic;
    {
        Scope s(spans, "nic.construct");
        nic = std::make_unique<NicController>(w.nic);
    }
    double t1 = hostNow();
    {
        Scope s(spans, "nic.startRun");
        nic->startRun();
    }
    double t2 = hostNow();
    runSliced(nic->eventQueue(), warmupTicks, spans, "sim.runUntil.warmup");
    nic->checkLiveness();
    double t3 = hostNow();

    Counters before;
    {
        Scope s(spans, "nic.beginMeasurement");
        nic->beginMeasurement();
    }
    {
        Scope s(spans, "obs.readStats");
        before = readCounters(*nic);
    }
    double t4 = hostNow();
    runSliced(nic->eventQueue(), warmupTicks + w.window, spans,
              "sim.runUntil.window");
    double t5 = hostNow();
    nic->checkLiveness();

    NicResults r;
    {
        Scope s(spans, "nic.endMeasurement");
        r = nic->endMeasurement();
    }
    Counters delta;
    EndState end;
    double delivered = 0;
    {
        Scope s(spans, "obs.readStats");
        Counters after = readCounters(*nic);
        accumulateDelta(delta, before, after);
        readEndState(*nic, end);
        delivered = after.at("link.txFrames") +
                    after.at("link.rxFramesDelivered");
    }
    nic->stopRun();
    {
        Scope s(spans, "nic.destroy");
        nic.reset();
    }

    Value rep = Value::object();
    rep.set("construct_s", t1 - t0);
    rep.set("start_s", t2 - t1);
    rep.set("warmup_s", t3 - t2);
    rep.set("setup_s", t3 - t0);
    rep.set("timed_s", t5 - t4);
    rep.set("sim_us", static_cast<double>(w.window) / tickPerUs);
    rep.set("delivered", delivered);
    rep.set("outcome", outcomeJson({r}, delta, end,
                                   static_cast<double>(w.window)));
    return rep;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One fleet repeat: construction, run(), stat reads, destruction. */
Value
runFleet(const Workload &w, std::uint64_t seed, unsigned threads,
         Spans &spans, bool report_json)
{
    FleetConfig fc = fleetConfig(w, seed, threads);
    Scope top(spans, threads == 1 ? "repeat.1thread" : "repeat");
    double t0 = hostNow();
    std::unique_ptr<FleetRunner> fleet;
    {
        Scope s(spans, "fleet.construct");
        fleet = std::make_unique<FleetRunner>(fc);
    }
    double t1 = hostNow();
    std::vector<Counters> before;
    {
        Scope s(spans, "obs.readStats");
        for (unsigned i = 0; i < fleet->size(); ++i)
            before.push_back(readCounters(fleet->node(i)));
    }
    double t2 = hostNow();
    FleetResults r;
    {
        Scope s(spans, "fleet.run");
        r = fleet->run();
    }
    double t3 = hostNow();

    Counters delta;
    EndState end;
    double delivered = 0;
    {
        Scope s(spans, "obs.readStats");
        for (unsigned i = 0; i < fleet->size(); ++i) {
            Counters after = readCounters(fleet->node(i));
            accumulateDelta(delta, before[i], after);
            readEndState(fleet->node(i), end);
            delivered += after.at("link.txFrames") +
                         after.at("link.rxFramesDelivered");
        }
    }
    if (report_json) {
        Scope s(spans, "fleet.reportJson");
        // The structured report is part of the fleet's public output;
        // it is built (and discarded) so the trace shows its cost.
        Value doc = fleet->reportJson(r);
        (void)doc;
    }
    {
        Scope s(spans, "fleet.destroy");
        fleet.reset();
    }

    Tick run_ticks = fc.warmupTicks + fc.measureTicks;
    Value o = outcomeJson(r.nic, delta, end,
                          static_cast<double>(run_ticks));
    Value f = Value::object();
    f.set("windows", r.windows);
    f.set("frames_forwarded", r.framesForwarded);
    f.set("switch_drops", r.framesDropped);
    f.set("inject_rejected", r.injectRejected);
    f.set("cross_delivered", r.crossDelivered);
    f.set("unaccounted_loss", r.unaccountedLoss);
    f.set("switch_lat_p99_us", r.switchLatencyP99Us);
    f.set("errors", r.errors);
    Value hashes = Value::array();
    for (std::size_t i = 0; i < r.wireHash.size(); ++i)
        hashes.push(hex(r.wireHash[i]) + ":" + hex(r.injectHash[i]));
    f.set("hashes", std::move(hashes));
    o.set("fleet", std::move(f));

    Value rep = Value::object();
    rep.set("construct_s", t1 - t0);
    rep.set("setup_s", t1 - t0);
    rep.set("timed_s", t3 - t2);
    rep.set("sim_us", static_cast<double>(fleetNodes) *
                          static_cast<double>(run_ticks) / tickPerUs);
    rep.set("delivered", delivered);
    rep.set("max_concurrent_workers", r.maxConcurrentWorkers);
    rep.set("outcome", std::move(o));
    return rep;
}

Value
runOnce(const Workload &w, std::uint64_t seed, Spans &spans)
{
    if (w.fleet)
        return runFleet(w, seed, fleetThreads, spans, false);
    return runNic(w, spans);
}

const char *
argValue(int argc, char **argv, const char *flag, const char *dflt)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return dflt;
}

int
benchMain(int argc, char **argv)
{
    const char *name = argValue(argc, argv, "--workload", nullptr);
    fatal_if(!name, "usage: nicbench --workload NAME --seed N "
             "--seconds S [--trace 0|1]");
    std::uint64_t seed =
        std::strtoull(argValue(argc, argv, "--seed", "1"), nullptr, 10);
    double seconds = std::strtod(argValue(argc, argv, "--seconds", "10"),
                                 nullptr);
    bool traced =
        std::strcmp(argValue(argc, argv, "--trace", "0"), "1") == 0;

    Workload w = makeWorkload(name, seed);
    Value doc = Value::object();
    doc.set("workload", w.name);
    doc.set("seed", seed);
    doc.set("nodes", w.fleet ? fleetNodes : 1u);
    unsigned threads = w.fleet ? fleetThreads : 1u;
    doc.set("threads", threads);

    doc.set("ref_ops_per_burst", nicbench::refOpsPerBurst);
    doc.set("ref_ops_per_ref_s", nicbench::refOpsPerRefSecond);

    Spans off(false);
    Value repeats = Value::array();
    double start = hostNow();
    double burst = nicbench::refBurstSeconds(threads);
    while (repeats.size() < minRepeats || hostNow() - start < seconds) {
        Value rep = runOnce(w, seed, off);
        double next = nicbench::refBurstSeconds(threads);
        rep.set("ref_burst_s", (burst + next) / 2);
        burst = next;
        repeats.push(std::move(rep));
    }
    doc.set("repeats", std::move(repeats));

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    doc.set("peak_rss_kib", static_cast<std::uint64_t>(ru.ru_maxrss));

    if (traced) {
        Spans spans(true);
        Value t = w.fleet ? runFleet(w, seed, fleetThreads, spans, true)
                          : runNic(w, spans);
        t.set("ref_burst_s",
              (burst + nicbench::refBurstSeconds(threads)) / 2);
        if (w.fleet) {
            // The same fleet on one thread gives fleet.parallel_eff.
            Value one = runFleet(w, seed, 1, spans, false);
            t.set("one_thread_run_s", one.at("timed_s"));
            t.set("one_thread_outcome", one.at("outcome"));
        }
        t.set("spans", spans.toJson());
        doc.set("traced", std::move(t));
    }

    doc.write(std::cout);
    std::cout << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nicbench: %s\n", e.what());
        return 1;
    }
}
