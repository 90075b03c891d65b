/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrates
 * themselves: event-queue throughput, scratchpad arbitration, SDRAM
 * bursts, coherence simulation, and the ILP scheduler.  These guard
 * the simulator's own performance (the table/figure benches sweep
 * dozens of multi-millisecond simulations).
 */

#include <benchmark/benchmark.h>

#include "mem/scratchpad.hh"
#include "mem/sdram.hh"
#include "sim/event_queue.hh"
#include "src/coherence/coherent_cache.hh"
#include "src/ilp/ilp_analyzer.hh"

using namespace tengig;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        int fired = 0;
        for (int i = 0; i < n; ++i)
            eq.schedule(static_cast<Tick>(i % 97), [&fired] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_EventQueueSelfSchedulingChain(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        int count = 0;
        std::function<void()> tick = [&] {
            if (++count < n)
                eq.scheduleIn(1000, tick);
        };
        eq.schedule(0, tick);
        eq.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueSelfSchedulingChain)->Arg(100000);

void
BM_ScratchpadContendedAccesses(benchmark::State &state)
{
    const unsigned requesters = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        ClockDomain cpu("cpu", 5000);
        Scratchpad spad(eq, cpu, requesters, 64 * 1024, 4);
        int done = 0;
        eq.schedule(0, [&] {
            for (unsigned r = 0; r < requesters; ++r)
                for (int i = 0; i < 200; ++i)
                    spad.access(r, static_cast<Addr>(4 * i), SpadOp::Read,
                                0, [&done](const Scratchpad::Response &) {
                                    ++done;
                                });
        });
        eq.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 200);
}
BENCHMARK(BM_ScratchpadContendedAccesses)->Arg(2)->Arg(10);

void
BM_SdramFrameBursts(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        ClockDomain bus("membus", 2000);
        GddrSdram ram(eq, bus);
        int done = 0;
        std::function<void(unsigned, int)> issue = [&](unsigned who,
                                                       int n) {
            if (n == 0)
                return;
            ram.request(who, (who % 4) * 1024 * 1024 +
                        static_cast<Addr>(n % 128) * 1536, 1518,
                        who % 2 == 0, [&, who, n] {
                            ++done;
                            issue(who, n - 1);
                        });
        };
        eq.schedule(0, [&] {
            for (unsigned w = 0; w < 4; ++w)
                issue(w, 100);
        });
        eq.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_SdramFrameBursts);

void
BM_CoherenceTrace(benchmark::State &state)
{
    // Synthetic trace with NIC-like sharing.
    coherence::Trace trace;
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        trace.push_back(coherence::AccessRecord{
            static_cast<std::uint8_t>(rng.below(8)), rng.chance(0.3),
            4 * rng.below(8192)});
    }
    for (auto _ : state) {
        coherence::CoherentCacheSystem sys(8, 8 * 1024, 16,
                                           coherence::Protocol::MESI);
        sys.run(trace);
        benchmark::DoNotOptimize(sys.stats().hits);
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_CoherenceTrace);

void
BM_IlpSchedule(benchmark::State &state)
{
    ilp::TraceGenConfig tc;
    tc.instructions = 100000;
    ilp::InstrTrace trace = ilp::generateFirmwareTrace(tc);
    for (auto _ : state) {
        ilp::IlpConfig cfg;
        cfg.inOrder = false;
        cfg.width = 4;
        cfg.perfectPipeline = false;
        cfg.branch = ilp::BranchModel::PBP1;
        double ipc = ilp::analyzeIpc(trace, cfg);
        benchmark::DoNotOptimize(ipc);
    }
    state.SetItemsProcessed(state.iterations() * tc.instructions);
}
BENCHMARK(BM_IlpSchedule);

} // namespace

BENCHMARK_MAIN();
