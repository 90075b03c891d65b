#include "fleet/fleet.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <optional>
#include <thread>

#include "sim/logging.hh"

namespace tengig {

namespace {

constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Fold one frame observation (at @p tick) into a stream hash. */
std::uint64_t
foldFrame(std::uint64_t h, Tick tick, const FrameView &v)
{
    std::uint32_t seq = ~0u;
    std::uint32_t flow = ~0u;
    peekFrameView(v, seq, flow);
    h = fnv1a(h, tick);
    h = fnv1a(h, v.len);
    h = fnv1a(h, (static_cast<std::uint64_t>(flow) << 32) | seq);
    return h;
}

std::string
hashHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

const char *
topologyName(FleetTopology t)
{
    switch (t) {
      case FleetTopology::None: return "none";
      case FleetTopology::Ring: return "ring";
      case FleetTopology::Pairs: return "pairs";
    }
    return "?";
}

/**
 * CPU pauses a waiting thread spins before it falls back to yielding:
 * about 0.1 ms on a 4-vCPU Xeon KVM guest (4096 pauses timed at
 * 98-130 us).  On that guest, std::barrier waits, which sleep in a
 * futex, started a worker ~10 us after its window opened and resumed
 * the coordinator 26-37 us after the last worker finished (medians,
 * quiet host; up to 0.41 ms loaded), against a 10-16 us exchange.
 * Waits that still ended in a sleep, in std::atomic::wait or after a
 * 0.65 ms spin, kept only part of the gain on nicbench's fleet_ring
 * (+6.2% and +5.4%, against +9.0% for spin-then-yield).
 */
constexpr unsigned spinPauses = 4096;

void
cpuPause()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/** Wait until @p ready() holds: spin, then yield; never sleep. */
template <typename Ready>
void
spinUntil(Ready ready)
{
    for (unsigned i = 0; i < spinPauses; ++i) {
        if (ready())
            return;
        cpuPause();
    }
    while (!ready())
        std::this_thread::yield();
}

/**
 * The fleet's worker pool: the calling thread is worker 0, and
 * `helpers` threads run workers 1..helpers.  Each window is one
 * hand-off: the caller bumps an epoch (release) and runs work(0); each
 * helper sees the epoch move (acquire), runs work(w), and counts
 * itself out (release); the caller waits for the count to reach 0
 * (acquire).  Those two edges order everything written before a
 * window against the helpers' work, and their work against whatever
 * the caller does after the window.
 */
class WorkerPool
{
  public:
    WorkerPool(unsigned helpers, std::function<void(unsigned)> fn)
        : work(std::move(fn))
    {
        try {
            threads.reserve(helpers);
            for (unsigned w = 1; w <= helpers; ++w)
                threads.emplace_back([this, w] { helperLoop(w); });
        } catch (...) {
            stop(); // no destructor runs for a half-built pool
            throw;
        }
    }

    /** Stops and joins the helpers; also runs on exception paths. */
    ~WorkerPool() { stop(); }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Run work(w) once on every worker; returns when all are done. */
    void
    runEpoch()
    {
        outstanding.store(static_cast<unsigned>(threads.size()),
                          std::memory_order_relaxed);
        epoch.fetch_add(1, std::memory_order_release);
        work(0);
        spinUntil([this] {
            return outstanding.load(std::memory_order_acquire) == 0;
        });
    }

  private:
    void
    stop()
    {
        stopping = true;
        epoch.fetch_add(1, std::memory_order_release);
        for (auto &t : threads)
            t.join();
    }

    void
    helperLoop(unsigned w)
    {
        std::uint64_t seen = 0;
        while (true) {
            std::uint64_t now = seen;
            spinUntil([&] {
                return (now = epoch.load(std::memory_order_acquire)) !=
                       seen;
            });
            seen = now;
            if (stopping)
                return;
            work(w);
            outstanding.fetch_sub(1, std::memory_order_release);
        }
    }

    std::function<void(unsigned)> work;
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<unsigned> outstanding{0};
    bool stopping = false; //!< published by the final epoch bump
    std::vector<std::thread> threads; //!< last: helpers use the above
};

} // namespace

FleetRunner::FleetRunner(const FleetConfig &c) : cfg(c)
{
    cfg.validate();

    unsigned m = static_cast<unsigned>(cfg.nodes.size());
    bool forwarding = cfg.topology != FleetTopology::None;
    if (forwarding) {
        fabric = std::make_unique<FleetSwitch>(cfg.sw, m);
        fabric->registerStats(fleetRoot.group("switch"));
    }

    // Fault-domain components exist only when configured: a default
    // fleet carries no chaos state, no protocol state, and no extra
    // stat groups, so its runs (and report JSON) are bit-identical to
    // a build without the subsystem.
    if (cfg.fabricFaults.enabled()) {
        chaos = std::make_unique<FabricFaultInjector>(cfg.fabricFaults, m);
        chaos->registerStats(fleetRoot.group("switch"));
    }
    if (cfg.reliable.enabled) {
        rto = cfg.minRetransmitTimeout();
        relay = std::make_unique<ReliableSender>(rto);
        obs::StatGroup &rg = fleetRoot.group("reliable");
        relay->registerStats(rg);
        // The post-storm recovery contract: 0 once every frame first
        // sent before the storm ended is acked.
        rg.derived("pending_storm_era",
                   [this] {
                       Tick end = cfg.fabricFaults.stormEnd;
                       return static_cast<double>(
                           end ? relay->pendingOlderThan(end) : 0);
                   },
                   "tracked frames first sent before the storm ended");
    }

    for (unsigned i = 0; i < m; ++i) {
        auto node = std::make_unique<Node>();
        node->nic = std::make_unique<NicController>(cfg.nodes[i]);
        node->wireHash = fnvBasis;
        node->injectHash = fnvBasis;
        switch (cfg.topology) {
          case FleetTopology::Ring:
            node->dstPort = (i + 1) % m;
            break;
          case FleetTopology::Pairs:
            node->dstPort = i ^ 1u;
            break;
          case FleetTopology::None:
            node->dstPort = i;
            break;
        }
        if (relay)
            node->rrx = std::make_unique<ReliableReceiver>(*node->nic);
        nodes.push_back(std::move(node));
    }

    if (relay) {
        // Receiver counters live per node; the fleet surface sums them
        // lazily so the "reliable" subtree shows both halves of the
        // protocol next to each other.
        obs::StatGroup &rg = fleetRoot.group("reliable");
        auto sumRx = [this](std::uint64_t (ReliableReceiver::*m)() const) {
            std::uint64_t n = 0;
            for (const auto &np : nodes)
                n += (np->rrx.get()->*m)();
            return static_cast<double>(n);
        };
        rg.derived("delivered",
                   [sumRx] { return sumRx(&ReliableReceiver::deliveredTotal); },
                   "cross-node frames injected in order at destinations");
        rg.derived("dup_suppressed",
                   [sumRx] { return sumRx(&ReliableReceiver::dupSuppressed); },
                   "retransmitted frames whose original survived");
        rg.derived("corrupt_discarded",
                   [sumRx] { return sumRx(&ReliableReceiver::corruptDiscarded); },
                   "frames discarded by the link-port CRC check");
        rg.derived("rx_refusals",
                   [sumRx] { return sumRx(&ReliableReceiver::rxRefusals); },
                   "MAC-refused injections held as backpressure");
        rg.derived("rx_retries",
                   [sumRx] { return sumRx(&ReliableReceiver::rxRetries); },
                   "receiver re-injection attempts after refusals");
        rg.derived("rx_buffered",
                   [sumRx] { return sumRx(&ReliableReceiver::buffered); },
                   "frames parked in receive reorder buffers");
    } else if (chaos) {
        // Without reliable delivery the link port's CRC check runs in
        // the receipt event itself (offerFrame), counted per node.
        fleetRoot.group("switch").group("chaos").derived(
            "corrupt_discarded",
            [this] {
                std::uint64_t n = 0;
                for (const auto &np : nodes)
                    n += np->corruptDiscards;
                return static_cast<double>(n);
            },
            "frames discarded by the link-port CRC check");
    }

    if (cfg.healthMonitor || chaos) {
        health = std::make_unique<FleetHealthMonitor>();
        for (unsigned i = 0; i < m; ++i) {
            NicController *nic = nodes[i]->nic.get();
            health->addNode(FleetHealthMonitor::NodeProbe{
                "node " + std::to_string(i) + " (egress link " +
                    std::to_string(nodes[i]->dstPort) + ")",
                [nic] { return nic->lastFirmwareRetireTick(); },
                [nic] { return nic->pipelineBusy(); },
                [nic] { return nic->eventQueue().empty(); },
                [nic] { return nic->pipelineReport(); }});
        }
        health->registerStats(fleetRoot.group("health"));
    }

    // The tap runs on whichever worker owns the instance during a
    // window; it touches only that instance's Node state, and the
    // window hand-off (WorkerPool) orders those accesses across
    // windows.
    for (auto &np : nodes) {
        Node *n = np.get();
        bool capture = forwarding;
        n->nic->setWireTap([n, capture](const FrameView &v) {
            Tick t = n->nic->eventQueue().curTick();
            n->wireHash = foldFrame(n->wireHash, t, v);
            if (capture) {
                FrameData fd;
                if (v.desc)
                    fd.desc = *v.desc;
                else
                    fd.bytes.assign(v.bytes, v.bytes + v.len);
                n->outbox.push_back({t, n->captureSeq++, std::move(fd)});
            }
        });
    }
}

FleetRunner::~FleetRunner() = default;

unsigned
FleetRunner::resolveThreads() const
{
    if (cfg.threads)
        return cfg.threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
FleetRunner::offerFrame(unsigned src, Tick sent, FrameData &&frame,
                        Tick now, std::uint64_t rec_id)
{
    unsigned dst = nodes[src]->dstPort;
    ++offered;

    // The fault gauntlet, in traversal order.  Each roll consumes from
    // its own (link, class) stream and every decision happens here in
    // the single-threaded barrier pass, so chaos runs stay
    // bit-identical across thread counts.
    Tick enq = sent + cfg.sw.fabricLatencyTicks;
    if (chaos && chaos->linkDown(dst, enq)) {
        chaos->noteLinkKill(dst);
        if (rec_id)
            relay->owe(rec_id, FabricFaultClass::LinkDown);
        return;
    }
    if (chaos && chaos->rollDrop(dst, enq)) {
        if (rec_id)
            relay->owe(rec_id, FabricFaultClass::Drop);
        return;
    }

    auto arrival = fabric->forward(src, dst, sent, frame.frameBytes());
    if (!arrival) {
        // Dropped at the egress FIFO; counted by the switch (the
        // `switch.egress<i>.drops` ledger surface).
        if (rec_id)
            relay->owe(rec_id, FabricFaultClass::EgressFull);
        return;
    }
    fatal_if(*arrival < now, "fleet lookahead violated: arrival ",
             *arrival, " before barrier ", now,
             " (fabric latency must be >= sync window)");

    // Corruption strikes frames that made it through the switch, so
    // the injected count never double-books a dropped frame.
    bool corrupted = chaos && chaos->rollCorrupt(dst, *arrival);

    Node *dn = nodes[dst].get();
    dn->injectHash = foldFrame(dn->injectHash, *arrival, frame.view());
    NicController *nic = dn->nic.get();
    auto fd = std::make_unique<FrameData>(std::move(frame));
    if (dn->rrx) {
        ReliableReceiver *rx = dn->rrx.get();
        dn->nic->eventQueue().schedule(
            *arrival, [rx, dn, corrupted, fd = std::move(fd)]() mutable {
                ++dn->receiptsRun;
                rx->receive(std::move(*fd), corrupted);
            });
    } else {
        dn->nic->eventQueue().schedule(
            *arrival, [nic, dn, corrupted, fd = std::move(fd)]() mutable {
                ++dn->receiptsRun;
                if (corrupted) {
                    // The link port's CRC check: the damaged frame
                    // dies before the MAC, keeping the destination's
                    // own stat tree chaos-independent.
                    ++dn->corruptDiscards;
                    return;
                }
                if (nic->injectWireFrame(std::move(*fd)))
                    ++dn->injectDelivered;
                else
                    ++dn->injectDropped;
            });
    }

    if (!rec_id)
        return;
    if (corrupted) {
        relay->owe(rec_id, FabricFaultClass::Corrupt);
        return;
    }
    // Delivered: the ack crosses back over the source's egress link
    // with the fabric latency, subject to that link's flap windows and
    // the ack-drop Bernoulli stream.
    Tick ackArrival = *arrival + cfg.sw.fabricLatencyTicks;
    if (chaos && (chaos->linkDown(src, ackArrival) ||
                  chaos->rollAckDrop(src, ackArrival))) {
        chaos->noteAckLost(src);
        relay->owe(rec_id, FabricFaultClass::AckLost);
        return;
    }
    relay->ackInFlight(rec_id, ackArrival);
}

void
FleetRunner::exchange(Tick now)
{
    if (fabric) {
        // Acks land before timeouts are judged: a frame whose ack
        // arrived by this barrier can never be spuriously retransmitted
        // at the same barrier.
        if (relay)
            relay->processAcks(now);

        // Deterministic merge: simulated send time, then source port,
        // then per-source capture order.  This total order depends only
        // on the simulation, never on which thread ran which instance.
        mergeScratch.clear();
        for (unsigned p = 0; p < nodes.size(); ++p)
            for (Capture &cap : nodes[p]->outbox)
                mergeScratch.emplace_back(p, &cap);
        std::sort(mergeScratch.begin(), mergeScratch.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second->sent != b.second->sent)
                          return a.second->sent < b.second->sent;
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second->seq < b.second->seq;
                  });

        for (auto &[src, cap] : mergeScratch) {
            std::uint64_t id = relay
                ? relay->track(src, nodes[src]->dstPort, cap->sent,
                               cap->frame)
                : 0;
            offerFrame(src, cap->sent, std::move(cap->frame), now, id);
        }
        for (auto &n : nodes)
            n->outbox.clear();

        // Retransmissions re-enter the fabric at the barrier tick,
        // which keeps the switch's nondecreasing-send-tick contract:
        // every capture this window was sent at or before `now`.
        if (relay) {
            for (std::uint64_t id : relay->collectTimeouts(now)) {
                const ReliableSender::Record &rec = relay->record(id);
                offerFrame(rec.src, now, FrameData(rec.frame), now, id);
            }
        }
    }

    if (chaos && cfg.fabricFaults.nodeStallRate > 0.0) {
        for (unsigned i = 0; i < nodes.size(); ++i) {
            auto episode =
                chaos->rollNodeStall(i, now, cfg.syncWindowTicks);
            if (!episode)
                continue;
            auto [start, dur] = *episode;
            NicController *nic = nodes[i]->nic.get();
            nic->eventQueue().schedule(start,
                                       [nic] { nic->freezeCores(); });
            nic->eventQueue().schedule(start + dur,
                                       [nic] { nic->thawCores(); });
        }
    }
    if (chaos)
        for (unsigned i = 0; i < nodes.size(); ++i)
            if (chaos->linkDown(i, now))
                chaos->noteDegradedWindow(i);

    if (health)
        health->sample();
}

FleetResults
FleetRunner::run()
{
    fatal_if(ran, "FleetRunner::run is single-shot; build a new runner");
    ran = true;

    unsigned nthreads = resolveThreads();
    std::size_t m = nodes.size();
    FleetResults res;

    for (auto &n : nodes)
        n->nic->startRun();

    Tick end = cfg.warmupTicks + cfg.measureTicks;
    auto beginAll = [&] {
        for (auto &n : nodes) {
            n->nic->checkLiveness();
            n->nic->beginMeasurement();
        }
    };
    if (cfg.warmupTicks == 0)
        beginAll();

    using Clock = std::chrono::steady_clock;
    auto wall0 = Clock::now();

    auto workers = static_cast<unsigned>(std::min<std::size_t>(nthreads, m));
    std::atomic<std::size_t> nextIdx{0};
    std::atomic<unsigned> busy{0};
    std::atomic<unsigned> peak{0};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> thrown(m);
    std::vector<Clock::duration> computeTime(workers);
    Tick target = 0;

    // Worker w claims instances off the shared index until none are
    // left or one has thrown.  A node's exception is kept, not
    // propagated, so the window ends cleanly on every worker and the
    // caller rethrows the lowest-index one: every lower-index node was
    // claimed earlier and ran its whole window, so that is the
    // exception a 1-thread run throws.
    auto claim = [&](unsigned w) {
        for (std::size_t i; !failed.load(std::memory_order_relaxed) &&
                            (i = nextIdx.fetch_add(1)) < m;) {
            unsigned b = busy.fetch_add(1) + 1;
            unsigned p = peak.load();
            while (b > p && !peak.compare_exchange_weak(p, b)) {
            }
            auto c0 = Clock::now();
            try {
                nodes[i]->nic->eventQueue().runUntil(target);
            } catch (...) {
                thrown[i] = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
            computeTime[w] += Clock::now() - c0;
            busy.fetch_sub(1);
        }
    };
    // Declared after everything `claim` touches, so that unwinding
    // joins the helpers before any of it is destroyed.
    std::optional<WorkerPool> pool{std::in_place, workers - 1, claim};

    auto windowTo = [&](Tick until) {
        target = until;
        nextIdx.store(0, std::memory_order_relaxed);
        pool->runEpoch();
        if (failed.load(std::memory_order_relaxed))
            for (const std::exception_ptr &e : thrown)
                if (e)
                    std::rethrow_exception(e);
    };

    // One sync window: the parallel phase up to `until`, then the
    // serial exchange at the barrier that closes it.
    Clock::duration windowTime{};
    Clock::duration exchangeTime{};
    auto step = [&](Tick until) {
        auto c0 = Clock::now();
        windowTo(until);
        auto c1 = Clock::now();
        exchange(until);
        windowTime += c1 - c0;
        exchangeTime += Clock::now() - c1;
        ++res.windows;
    };

    Tick t = 0;
    while (t < end) {
        Tick edge = t < cfg.warmupTicks ? cfg.warmupTicks : end;
        Tick until = std::min(t + cfg.syncWindowTicks, edge);
        step(until);
        t = until;
        if (t == cfg.warmupTicks && t != end)
            beginAll();
    }

    // The measured window closes at the horizon: drain windows below
    // are protocol settling time, not workload, and counting their
    // quiesced ticks would dilute measured throughput.
    std::vector<NicResults> nicRes;
    nicRes.reserve(m);
    for (auto &n : nodes) {
        n->nic->checkLiveness();
        nicRes.push_back(n->nic->endMeasurement());
    }

    // Drain phase (reliable runs): quiesce transmit posting, then keep
    // exchanging windows until every tracked frame is acked and every
    // reorder buffer is empty -- the 100%-recovery contract is checked
    // against a settled system, not a horizon that happened to cut
    // receipts, acks, or receiver retries mid-flight.  Convergence is
    // bounded by the worst backed-off deadline; overrunning it means
    // the protocol leaked a record and is fatal.
    if (relay) {
        for (auto &n : nodes)
            n->nic->quiesceTx();
        auto settled = [&] {
            if (relay->pendingCount() > 0)
                return false;
            for (auto &n : nodes)
                if (n->rrx && !n->rrx->drained())
                    return false;
            return true;
        };
        Tick cap = t + (rto << (ReliableDeliveryConfig::backoffMax + 2));
        while (!settled()) {
            fatal_if(t >= cap, "reliable drain did not settle within ",
                     (cap - end) / tickPerUs, " us past the run end: ",
                     relay->pendingCount(), " frames still tracked");
            t += cfg.syncWindowTicks;
            step(t);
        }
    }

    pool.reset(); // join the helpers

    auto seconds = [](Clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    res.wallSeconds = seconds(Clock::now() - wall0);
    res.maxConcurrentWorkers = peak.load();
    Clock::duration compute{};
    for (Clock::duration d : computeTime)
        compute += d;
    res.windowSeconds = seconds(windowTime);
    res.exchangeSeconds = seconds(exchangeTime);
    res.computeSeconds = seconds(compute);
    res.waitSeconds = seconds(workers * windowTime - compute);

    for (std::size_t i = 0; i < m; ++i) {
        auto &n = nodes[i];
        n->nic->checkLiveness();
        NicResults r = std::move(nicRes[i]);
        n->nic->stopRun();
        res.aggTxGbps += r.txUdpGbps;
        res.aggRxGbps += r.rxUdpGbps;
        res.aggTotalGbps += r.totalUdpGbps;
        res.errors += r.errors;
        res.eventsExecuted += n->nic->eventQueue().executedEvents();
        res.wireHash.push_back(n->wireHash);
        res.injectHash.push_back(n->injectHash);
        res.injectRejected += n->injectDropped;
        res.nic.push_back(std::move(r));
    }
    if (res.wallSeconds > 0)
        res.eventsPerSec =
            static_cast<double>(res.eventsExecuted) / res.wallSeconds;
    if (fabric) {
        res.framesForwarded = fabric->framesForwarded();
        res.framesDropped = fabric->framesDropped();
        const auto &lh = fabric->latencyHistogram();
        res.switchLatencyMeanUs = lh.mean() / tickPerUs;
        res.switchLatencyP99Us = lh.p99() / tickPerUs;
    }

    res.fabricOffered = offered;
    if (chaos)
        chaos->finalize(t); // t includes any drain windows past `end`

    std::uint64_t receiptsRun = 0;
    for (const auto &n : nodes) {
        receiptsRun += n->receiptsRun;
        res.crossDelivered +=
            n->rrx ? n->rrx->deliveredTotal() : n->injectDelivered;
    }
    if (fabric) {
        // The delivery ledger: every offered frame is either forwarded
        // or accounted to exactly one loss class.  Any residue is a
        // bookkeeping bug, and the benches exit nonzero on it.
        std::uint64_t accounted = res.framesForwarded + res.framesDropped;
        if (chaos)
            accounted += chaos->linkDownKills() + chaos->dropsInjected();
        res.unaccountedLoss = offered > accounted ? offered - accounted
                                                  : accounted - offered;
        res.arrivalsInFlight = res.framesForwarded - receiptsRun;
    }
    return res;
}

obs::json::Value
FleetRunner::reportJson(const FleetResults &res) const
{
    using obs::json::Value;
    Value doc = Value::object();
    doc.set("schema", "tengig-fleet-v1");
    doc.set("nodes", size());
    doc.set("topology", topologyName(cfg.topology));
    doc.set("threads", resolveThreads());
    doc.set("syncWindowUs",
            static_cast<double>(cfg.syncWindowTicks) / tickPerUs);
    doc.set("switchLatencyUs",
            static_cast<double>(cfg.sw.fabricLatencyTicks) / tickPerUs);

    Value agg = Value::object();
    agg.set("txUdpGbps", res.aggTxGbps);
    agg.set("rxUdpGbps", res.aggRxGbps);
    agg.set("totalUdpGbps", res.aggTotalGbps);
    agg.set("errors", res.errors);
    agg.set("framesForwarded", res.framesForwarded);
    agg.set("framesDropped", res.framesDropped);
    agg.set("injectRejected", res.injectRejected);
    agg.set("switchLatencyMeanUs", res.switchLatencyMeanUs);
    agg.set("switchLatencyP99Us", res.switchLatencyP99Us);
    agg.set("fabricOffered", res.fabricOffered);
    agg.set("unaccountedLoss", res.unaccountedLoss);
    agg.set("arrivalsInFlight", res.arrivalsInFlight);
    agg.set("crossDelivered", res.crossDelivered);
    agg.set("eventsExecuted", res.eventsExecuted);
    agg.set("eventsPerSec", res.eventsPerSec);
    agg.set("wallSeconds", res.wallSeconds);
    agg.set("windows", res.windows);
    agg.set("maxConcurrentWorkers", res.maxConcurrentWorkers);
    agg.set("windowSeconds", res.windowSeconds);
    agg.set("exchangeSeconds", res.exchangeSeconds);
    agg.set("computeSeconds", res.computeSeconds);
    agg.set("waitSeconds", res.waitSeconds);
    doc.set("aggregate", std::move(agg));

    Value det = Value::object();
    Value wh = Value::array();
    for (std::uint64_t h : res.wireHash)
        wh.push(hashHex(h));
    Value ih = Value::array();
    for (std::uint64_t h : res.injectHash)
        ih.push(hashHex(h));
    det.set("wireHash", std::move(wh));
    det.set("injectHash", std::move(ih));
    doc.set("determinism", std::move(det));

    doc.set("fleet", fleetRoot.toJson());

    Value nic = Value::object();
    for (unsigned p = 0; p < nodes.size(); ++p)
        nic.set(std::to_string(p), nodes[p]->nic->statTree().toJson());
    doc.set("nic", std::move(nic));
    return doc;
}

} // namespace tengig
