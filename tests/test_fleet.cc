/**
 * @file
 * Fleet subsystem tests: the store-and-forward switch model in
 * isolation, FleetConfig validation, and the headline determinism
 * contract -- per-instance results, stat trees, and wire/inject
 * fingerprints are byte-identical whether the fleet runs on 1 thread
 * or N, and an isolated (no-forwarding) fleet node reproduces the
 * standalone NicController bit-for-bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "fleet/fleet.hh"
#include "sim/logging.hh"

using namespace tengig;

namespace {

constexpr Tick usT = tickPerUs;

SwitchModelConfig
switchCfg(Tick latency_us, unsigned queue_frames)
{
    SwitchModelConfig c;
    c.fabricLatencyTicks = latency_us * usT;
    c.egressQueueFrames = queue_frames;
    return c;
}

/** Template node: duplex multi-flow traffic below line rate so the
 *  forwarded stream fits on the destination wire most of the time. */
NicConfig
fleetNodeTemplate()
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::uniform(
        3, SizeModel::fixed(1472), ArrivalModel::paced(), 0.5, 0x7e57);
    cfg.rxTraffic = TrafficProfile::uniform(
        3, SizeModel::fixed(1472), ArrivalModel::paced(), 0.35, 0x7e58);
    return cfg;
}

FleetConfig
smallFleet(unsigned count, unsigned threads, bool forward)
{
    FleetConfig fc = FleetConfig::uniform(fleetNodeTemplate(), count,
                                          forward);
    fc.threads = threads;
    fc.syncWindowTicks = 10 * usT;
    fc.sw.fabricLatencyTicks = 10 * usT;
    fc.warmupTicks = 150 * usT;
    fc.measureTicks = 300 * usT;
    return fc;
}

void
expectSameResults(const NicResults &a, const NicResults &b)
{
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.txFrames, b.txFrames);
    EXPECT_EQ(a.rxFrames, b.rxFrames);
    EXPECT_EQ(a.rxDropped, b.rxDropped);
    EXPECT_EQ(a.errors, b.errors);
    EXPECT_EQ(a.integrityErrors, b.integrityErrors);
    EXPECT_EQ(a.orderGaps, b.orderGaps);
    EXPECT_EQ(a.orderDuplicates, b.orderDuplicates);
    EXPECT_EQ(a.flowsValidated, b.flowsValidated);
    EXPECT_EQ(a.txUdpGbps, b.txUdpGbps);
    EXPECT_EQ(a.rxUdpGbps, b.rxUdpGbps);
    EXPECT_EQ(a.totalUdpGbps, b.totalUdpGbps);
    EXPECT_EQ(a.aggregateIpc, b.aggregateIpc);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
    EXPECT_EQ(a.rxLatency.count, b.rxLatency.count);
    EXPECT_EQ(a.rxLatency.meanUs, b.rxLatency.meanUs);
    EXPECT_EQ(a.rxLatency.p99Us, b.rxLatency.p99Us);
    EXPECT_EQ(a.spadGbps, b.spadGbps);
    EXPECT_EQ(a.sdramGbps, b.sdramGbps);
    EXPECT_EQ(a.imemGbps, b.imemGbps);
}

/** Per-node results and fingerprints, and the switch counts, agree. */
void
expectSameFleet(const FleetResults &a, const FleetResults &b)
{
    ASSERT_EQ(a.nic.size(), b.nic.size());
    for (std::size_t i = 0; i < a.nic.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        expectSameResults(a.nic[i], b.nic[i]);
        EXPECT_EQ(a.wireHash[i], b.wireHash[i]);
        EXPECT_EQ(a.injectHash[i], b.injectHash[i]);
    }
    EXPECT_EQ(a.framesForwarded, b.framesForwarded);
    EXPECT_EQ(a.framesDropped, b.framesDropped);
    EXPECT_EQ(a.injectRejected, b.injectRejected);
}

} // namespace

// ---------------------------------------------------------------------
// Switch model
// ---------------------------------------------------------------------

TEST(FleetSwitch, UncontendedLatencyIsFabricPlusSerialization)
{
    FleetSwitch sw(switchCfg(5, 0), 2);
    // 1518 B frame: 1538 wire bytes at 800 ps/byte.
    Tick wire = wireTimeForFrame(1518);
    auto a = sw.forward(0, 1, 1000, 1518);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, 1000 + 5 * usT + wire);
    EXPECT_EQ(sw.framesForwarded(), 1u);
    EXPECT_EQ(sw.framesDropped(), 0u);
    EXPECT_EQ(sw.latencyHistogram().count(), 1u);
    EXPECT_EQ(sw.latencyHistogram().maxSample(), 5 * usT + wire);
}

TEST(FleetSwitch, EgressSerializesInOfferOrder)
{
    FleetSwitch sw(switchCfg(5, 0), 4);
    Tick wire = wireTimeForFrame(1518);
    // Three same-tick frames from different sources to one egress
    // port: arrivals are spaced one wire time apart, in offer order.
    auto a0 = sw.forward(0, 3, 0, 1518);
    auto a1 = sw.forward(1, 3, 0, 1518);
    auto a2 = sw.forward(2, 3, 0, 1518);
    ASSERT_TRUE(a0 && a1 && a2);
    EXPECT_EQ(*a1, *a0 + wire);
    EXPECT_EQ(*a2, *a1 + wire);
    EXPECT_EQ(sw.portFramesOut(3), 3u);
    // A later frame to an idle port is unaffected by port 3's queue.
    auto b = sw.forward(0, 1, 0, 1518);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*b, 5 * usT + wire);
}

TEST(FleetSwitch, DropsOnFullEgressFifoAndRecovers)
{
    FleetSwitch sw(switchCfg(5, 2), 2);
    Tick wire = wireTimeForFrame(1518);
    // Two frames fill the FIFO; the next two at the same tick drop.
    ASSERT_TRUE(sw.forward(0, 1, 0, 1518).has_value());
    ASSERT_TRUE(sw.forward(0, 1, 0, 1518).has_value());
    EXPECT_FALSE(sw.forward(0, 1, 0, 1518).has_value());
    EXPECT_FALSE(sw.forward(0, 1, 0, 1518).has_value());
    EXPECT_EQ(sw.framesForwarded(), 2u);
    EXPECT_EQ(sw.framesDropped(), 2u);
    // Once the first frame has departed the egress wire, a slot frees.
    Tick firstDepart = 5 * usT + wire;
    Tick clear = firstDepart > 5 * usT ? firstDepart - 5 * usT : 0;
    auto c = sw.forward(0, 1, clear + 1, 1518);
    EXPECT_TRUE(c.has_value());
    EXPECT_EQ(sw.framesForwarded(), 3u);
}

TEST(FleetSwitch, RejectsOutOfOrderOffers)
{
    FleetSwitch sw(switchCfg(5, 0), 2);
    ASSERT_TRUE(sw.forward(0, 1, 1000, 1518).has_value());
    EXPECT_THROW(sw.forward(0, 1, 999, 1518), FatalError);
}

TEST(FleetSwitch, RegistersStats)
{
    FleetSwitch sw(switchCfg(5, 0), 2);
    obs::StatGroup g;
    sw.registerStats(g);
    ASSERT_TRUE(sw.forward(0, 1, 0, 1518).has_value());
    EXPECT_EQ(g.counter("forwarded").value(), 1u);
    EXPECT_EQ(g.counter("port1.framesOut").value(), 1u);
    EXPECT_EQ(g.counter("dropped").value(), 0u);
}

// ---------------------------------------------------------------------
// Configuration contracts
// ---------------------------------------------------------------------

TEST(FleetConfigT, UniformAssignsDisjointFlowRangesAndPrivateSeeds)
{
    FleetConfig fc = FleetConfig::uniform(fleetNodeTemplate(), 3, true);
    EXPECT_EQ(fc.nodes.size(), 3u);
    EXPECT_EQ(fc.topology, FleetTopology::Ring);
    std::uint32_t expect = 0;
    for (const NicConfig &n : fc.nodes) {
        EXPECT_TRUE(n.externalWire);
        EXPECT_EQ(n.txTraffic.flowIdBase, expect);
        expect += 3;
        EXPECT_EQ(n.rxTraffic.flowIdBase, expect);
        expect += 3;
    }
    EXPECT_NE(fc.nodes[0].txTraffic.seed, fc.nodes[1].txTraffic.seed);
    EXPECT_NE(fc.nodes[0].txTraffic.seed, fc.nodes[0].rxTraffic.seed);
    fc.validate(); // must not throw
}

TEST(FleetConfigT, ValidateEnforcesLookahead)
{
    FleetConfig fc = smallFleet(2, 1, true);
    fc.sw.fabricLatencyTicks = fc.syncWindowTicks - 1;
    EXPECT_THROW(fc.validate(), FatalError);
}

TEST(FleetConfigT, ValidateRejectsOverlappingFlowRanges)
{
    FleetConfig fc = smallFleet(2, 1, true);
    fc.nodes[1].txTraffic.flowIdBase = fc.nodes[0].txTraffic.flowIdBase;
    EXPECT_THROW(fc.validate(), FatalError);
}

TEST(FleetConfigT, ValidateRejectsForwardingWithoutTxProfile)
{
    FleetConfig fc = smallFleet(2, 1, true);
    fc.nodes[0].txTraffic.flows.clear();
    EXPECT_THROW(fc.validate(), FatalError);
}

TEST(FleetConfigT, ValidateRejectsOddPairs)
{
    FleetConfig fc = smallFleet(3, 1, true);
    fc.topology = FleetTopology::Pairs;
    EXPECT_THROW(fc.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Fleet runs
// ---------------------------------------------------------------------

TEST(Fleet, ForwardingDeliversPeerFlowsWithoutErrors)
{
    FleetRunner fleet(smallFleet(3, 1, true));
    FleetResults res = fleet.run();

    EXPECT_EQ(res.errors, 0u);
    EXPECT_GT(res.framesForwarded, 0u);
    EXPECT_EQ(res.windows, 45u); // 450 us in 10 us windows
    // Ring: node 1's receive validator must have seen node 0's
    // transmit flows (global ids 0..2) alongside its own rx flows.
    const FlowSink &rx1 = fleet.node(1).rxFlowSink();
    std::uint32_t srcTxBase = fleet.node(0).config().txTraffic.flowIdBase;
    bool sawForwarded = false;
    for (std::uint32_t f = srcTxBase; f < srcTxBase + 3; ++f)
        if (rx1.flow(f) && rx1.flow(f)->frames > 0)
            sawForwarded = true;
    EXPECT_TRUE(sawForwarded);
    // Switch transit latency is at least the fabric latency.
    EXPECT_GE(res.switchLatencyMeanUs, 10.0);
}

TEST(Fleet, DeterministicAcrossThreadCounts)
{
    FleetRunner serial(smallFleet(3, 1, true));
    FleetResults rs = serial.run();
    EXPECT_GT(rs.framesForwarded, 0u);

    // 2 threads split three nodes unevenly; 4 is more threads than
    // nodes.
    for (unsigned threads : {2u, 3u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        FleetRunner threaded(smallFleet(3, threads, true));
        expectSameFleet(rs, threaded.run());
        // The full per-instance stat trees serialize byte-identically.
        for (unsigned i = 0; i < serial.size(); ++i)
            EXPECT_EQ(serial.node(i).statTree().toJson().dump(),
                      threaded.node(i).statTree().toJson().dump())
                << "node " << i;
    }
}

TEST(Fleet, OversubscribedThreadsFinishAndMatchOneThread)
{
    // Twice as many threads as the host has, each waiting for the next
    // window by spinning, then yielding: a waiter must never starve a
    // worker that still has a node to run.
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    auto ring = [hw](unsigned threads) {
        FleetConfig fc = smallFleet(2 * hw, threads, true);
        fc.syncWindowTicks = 2 * usT;
        fc.sw.fabricLatencyTicks = 2 * usT;
        fc.warmupTicks = 40 * usT;
        fc.measureTicks = 80 * usT;
        return fc;
    };
    FleetResults rs = FleetRunner(ring(1)).run();
    FleetResults rt = FleetRunner(ring(2 * hw)).run();

    EXPECT_EQ(rt.windows, 60u);
    EXPECT_GT(rs.framesForwarded, 0u);
    expectSameFleet(rs, rt);
}

TEST(Fleet, PhaseTimesPartitionTheRun)
{
    FleetConfig fc = smallFleet(3, 2, true);
    FleetRunner fleet(fc);
    FleetResults res = fleet.run();

    double workers = 2.0; // min(threads, nodes)
    EXPECT_GT(res.computeSeconds, 0.0);
    EXPECT_GT(res.exchangeSeconds, 0.0);
    EXPECT_LE(res.computeSeconds, workers * res.windowSeconds);
    EXPECT_LE(res.windowSeconds + res.exchangeSeconds, res.wallSeconds);
    EXPECT_NEAR(res.waitSeconds,
                workers * res.windowSeconds - res.computeSeconds, 1e-9);

    obs::json::Value doc = fleet.reportJson(res);
    EXPECT_EQ(doc.at("aggregate").at("computeSeconds").asNumber(),
              res.computeSeconds);
    EXPECT_EQ(doc.at("aggregate").at("waitSeconds").asNumber(),
              res.waitSeconds);
}

TEST(Fleet, NodeFatalErrorReachesTheCallerOnAnyThreadCount)
{
    for (unsigned victim : {0u, 2u}) {
        for (unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE("node " + std::to_string(victim) + ", " +
                         std::to_string(threads) + " threads");
            FleetRunner fleet(smallFleet(3, threads, true));
            std::string msg =
                "injected fault on node " + std::to_string(victim);
            fleet.node(victim).eventQueue().schedule(
                50 * usT, [msg] { fatal(msg); });
            try {
                fleet.run();
                ADD_FAILURE() << "run() returned despite the fault";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(msg),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(Fleet, BarrierFatalErrorReachesTheCallerOnAnyThreadCount)
{
    // Node 1 stops its cores and traffic mid-run with frames in
    // flight, so the health monitor finds it wedged at the next
    // barrier and exchange() throws while the helpers are alive.
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        FleetConfig fc = smallFleet(3, threads, false);
        fc.healthMonitor = true;
        FleetRunner fleet(fc);
        NicController *nic = &fleet.node(1);
        nic->eventQueue().schedule(50 * usT, [nic] { nic->stopRun(); });
        try {
            fleet.run();
            ADD_FAILURE() << "run() returned despite the wedge";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "node 1 (egress link 1) wedged"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Fleet, IsolatedNodeMatchesStandaloneController)
{
    // topology None: the windowed parallel engine must reproduce the
    // classic single-instance runWindow() path bit-for-bit.
    FleetConfig fc = smallFleet(2, 2, false);
    FleetRunner fleet(fc);
    FleetResults res = fleet.run();

    for (unsigned i = 0; i < 2; ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        NicController solo(fc.nodes[i]);
        NicResults ref = solo.run(fc.warmupTicks, fc.measureTicks);
        expectSameResults(ref, res.nic[i]);
    }
    EXPECT_EQ(res.framesForwarded, 0u);
}

TEST(Fleet, ReportExposesPerInstanceSubtreesAndAggregate)
{
    FleetRunner fleet(smallFleet(2, 1, true));
    FleetResults res = fleet.run();

    EXPECT_TRUE(fleet.node(0).statTree().has("link.txFrames"));
    EXPECT_TRUE(fleet.node(1).statTree().has("link.txFrames"));
    EXPECT_TRUE(fleet.fleetStats().has("switch.forwarded"));
    EXPECT_EQ(fleet.fleetStats().value("switch.forwarded"),
              static_cast<double>(res.framesForwarded));

    obs::json::Value doc = fleet.reportJson(res);
    EXPECT_EQ(doc.at("schema").asString(), "tengig-fleet-v1");
    EXPECT_EQ(doc.at("nodes").asNumber(), 2.0);
    EXPECT_EQ(doc.at("determinism").at("wireHash").size(), 2u);
    EXPECT_TRUE(doc.at("nic").find("0") != nullptr);
    EXPECT_TRUE(doc.at("nic").find("1") != nullptr);
    EXPECT_TRUE(doc.at("fleet").find("switch") != nullptr);
}
