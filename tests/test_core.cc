/**
 * @file
 * Unit tests for the core timing model: issue rates, stall categories,
 * store buffering, and profile accounting.
 */

#include <gtest/gtest.h>

#include <deque>

#include "proc/core.hh"

using namespace tengig;

namespace {

/** Dispatcher that hands out a scripted sequence of op lists. */
class ScriptedDispatcher : public Dispatcher
{
  public:
    void
    next(unsigned, OpList &out) override
    {
        if (script.empty()) {
            out.clear();
            MicroOp op;
            op.kind = OpKind::Alu;
            op.tag = FuncTag::Idle;
            op.count = 4;
            out.ops.push_back(std::move(op));
            out.idlePoll = true;
            return;
        }
        out = std::move(script.front());
        script.pop_front();
    }

    void push(OpList l) { script.push_back(std::move(l)); }

    std::deque<OpList> script;
};

struct CoreFixture : public ::testing::Test
{
    CoreFixture()
        : cpu("cpu", 5000),
          spad(eq, cpu, 8, 64 * 1024, 4),
          imem(cpu, 2),
          icache(imem, 8 * 1024, 2, 32),
          // Region size 0 disables instruction-fetch modeling so these
          // tests see pure pipeline/memory timing; I-cache behavior is
          // covered separately below.
          core(eq, cpu, 0, disp, spad, icache, CodeLayout::uniform(0),
               profile)
    {}

    /** Run until the scripted work drains, then stop the core. */
    void
    runScript(Tick horizon = 10 * tickPerUs)
    {
        core.start();
        eq.runUntil(horizon);
        core.stop();
        eq.run();
    }

    EventQueue eq;
    ClockDomain cpu;
    Scratchpad spad;
    InstructionMemory imem;
    ICache icache;
    ScriptedDispatcher disp;
    FirmwareProfile profile;
    Core core;
};

OpList
makeAlu(FuncTag tag, unsigned n, unsigned hazard = 0)
{
    OpList ops;
    OpRecorder r(ops, tag);
    r.alu(n, hazard);
    return ops;
}

} // namespace

TEST_F(CoreFixture, AluExecutesOneInstructionPerCycle)
{
    disp.push(makeAlu(FuncTag::SendFrame, 100));
    runScript();
    EXPECT_EQ(core.stats().executeCycles, 100u);
    EXPECT_EQ(core.stats().pipelineCycles, 0u);
    EXPECT_GE(core.stats().instructions, 100u);
    EXPECT_EQ(profile[FuncTag::SendFrame].instructions, 100u);
}

TEST_F(CoreFixture, HazardCyclesCountAsPipelineStalls)
{
    disp.push(makeAlu(FuncTag::SendFrame, 10, 5));
    runScript();
    EXPECT_EQ(core.stats().executeCycles, 10u);
    EXPECT_EQ(core.stats().pipelineCycles, 5u);
}

TEST_F(CoreFixture, LoadChargesOneBubble)
{
    OpList ops;
    OpRecorder r(ops, FuncTag::RecvFrame);
    r.load(0x100);
    disp.push(std::move(ops));
    runScript();
    EXPECT_EQ(core.stats().executeCycles, 1u);
    EXPECT_EQ(core.stats().loadStallCycles, 1u);
    EXPECT_EQ(core.stats().conflictCycles, 0u);
    EXPECT_EQ(profile[FuncTag::RecvFrame].memAccesses, 1u);
}

TEST_F(CoreFixture, RmwTimesLikeALoad)
{
    OpList ops;
    OpRecorder r(ops, FuncTag::SendDispatch);
    r.rmw(0x100);
    disp.push(std::move(ops));
    runScript();
    EXPECT_EQ(core.stats().loadStallCycles, 1u);
    EXPECT_EQ(spad.rmwAccesses(), 1u);
}

TEST_F(CoreFixture, SingleStoreDoesNotStall)
{
    OpList ops;
    OpRecorder r(ops, FuncTag::SendFrame);
    r.store(0x100);
    r.alu(10);
    disp.push(std::move(ops));
    runScript();
    EXPECT_EQ(core.stats().executeCycles, 11u);
    EXPECT_EQ(core.stats().loadStallCycles, 0u);
    EXPECT_EQ(core.stats().conflictCycles, 0u);
}

TEST_F(CoreFixture, BackToBackStoresDoNotStallWhenUncontended)
{
    // The paper: "store buffering avoids any stalling for stores" --
    // with an uncontended bank the buffer drains every cycle, so even
    // consecutive stores issue at full rate.
    OpList ops;
    OpRecorder r(ops, FuncTag::SendFrame);
    r.store(0x100);
    r.store(0x100);
    disp.push(std::move(ops));
    runScript();
    EXPECT_EQ(core.stats().executeCycles, 2u);
    EXPECT_EQ(core.stats().conflictCycles, 0u);
}

TEST_F(CoreFixture, ContendedStoreBufferStallsSecondStore)
{
    // An external requester hammers the same bank, delaying the first
    // store's grant; the second store finds the buffer occupied and
    // takes a structural (conflict-attributed) stall.
    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i)
            spad.access(7, 0x100, SpadOp::Read, 0, nullptr);
    }, EventPriority::HardwareProgress);
    OpList ops;
    OpRecorder r(ops, FuncTag::SendFrame);
    r.store(0x100);
    r.store(0x100);
    disp.push(std::move(ops));
    runScript();
    EXPECT_EQ(core.stats().executeCycles, 2u);
    EXPECT_GE(core.stats().conflictCycles, 1u);
}

TEST_F(CoreFixture, StoreThenSpacedStoreDoesNotStall)
{
    OpList ops;
    OpRecorder r(ops, FuncTag::SendFrame);
    r.store(0x100);
    r.alu(4);
    r.store(0x104);
    disp.push(std::move(ops));
    runScript();
    EXPECT_EQ(core.stats().conflictCycles, 0u);
}

TEST_F(CoreFixture, ActionsAreFreeAndOrdered)
{
    std::vector<int> seq;
    OpList ops;
    OpRecorder r(ops, FuncTag::SendFrame);
    r.action([&] { seq.push_back(1); });
    r.alu(5);
    r.action([&] { seq.push_back(2); });
    disp.push(std::move(ops));
    runScript();
    EXPECT_EQ(seq, (std::vector<int>{1, 2}));
    EXPECT_EQ(core.stats().executeCycles, 5u);
}

TEST_F(CoreFixture, ActionFiresAfterPrecedingAluTime)
{
    Tick when = 0;
    OpList ops;
    OpRecorder r(ops, FuncTag::SendFrame);
    r.alu(20);
    r.action([&, this] { when = eq.curTick(); });
    disp.push(std::move(ops));
    runScript();
    EXPECT_EQ(when, 20 * 5000u);
}

TEST_F(CoreFixture, IdleTagGoesToIdleBucket)
{
    runScript(50 * 5000);
    EXPECT_GT(core.stats().idleCycles, 0u);
    EXPECT_EQ(core.stats().executeCycles, 0u);
    EXPECT_GT(core.stats().idlePolls, 0u);
}

TEST_F(CoreFixture, ColdCodeMissesThenWarms)
{
    // Use a core with real fetch modeling: a 512-instruction region is
    // cold on the first pass and fully resident afterwards.
    ICache ic(imem, 8 * 1024, 2, 32);
    FirmwareProfile prof;
    ScriptedDispatcher d;
    CodeLayout layout = CodeLayout::uniform(2048);
    layout.size[static_cast<std::size_t>(FuncTag::Idle)] = 0;
    Core c(eq, cpu, 1, d, spad, ic, layout, prof);
    for (int pass = 0; pass < 4; ++pass)
        d.push(makeAlu(FuncTag::SendFrame, 512));
    c.start();
    eq.runUntil(100 * tickPerUs);
    c.stop();
    eq.run();
    // 2 KB region = 64 lines: exactly 64 cold misses total across all
    // four passes (wrap re-touches resident lines).
    EXPECT_EQ(ic.misses(), 64u);
    EXPECT_EQ(ic.hits(), 3 * 64u);
    EXPECT_GT(c.stats().imissCycles, 0u);
}

TEST_F(CoreFixture, InstructionCountMatchesProfileSum)
{
    OpList ops;
    OpRecorder r(ops, FuncTag::SendFrame);
    r.alu(17);
    r.load(0x40);
    r.store(0x44);
    r.tag(FuncTag::SendLock);
    r.rmw(0x48);
    disp.push(std::move(ops));
    runScript();
    std::uint64_t prof = 0;
    for (std::size_t i = 0; i < numFuncTags; ++i) {
        if (i == static_cast<std::size_t>(FuncTag::Idle))
            continue;
        prof += profile.buckets[i].instructions;
    }
    EXPECT_EQ(prof, 20u);
    EXPECT_EQ(profile[FuncTag::SendLock].memAccesses, 1u);
}

TEST_F(CoreFixture, IpcBreakdownSumsToTotal)
{
    OpList ops;
    OpRecorder r(ops, FuncTag::SendFrame);
    for (int i = 0; i < 20; ++i) {
        r.alu(5, 1);
        r.load(static_cast<Addr>(4 * i));
        r.store(static_cast<Addr>(4 * i));
    }
    disp.push(std::move(ops));
    runScript();
    const CoreStats &s = core.stats();
    EXPECT_EQ(s.totalCycles(),
              s.executeCycles + s.imissCycles + s.loadStallCycles +
              s.conflictCycles + s.pipelineCycles + s.idleCycles);
    EXPECT_GT(s.ipc(), 0.0);
    EXPECT_LE(s.ipc(), 1.0);
}

TEST(MultiCore, BankConflictsEmergeAcrossCores)
{
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);
    Scratchpad spad(eq, cpu, 8, 64 * 1024, 1); // single bank: maximal
    InstructionMemory imem(cpu, 2);
    FirmwareProfile profile;
    CodeLayout layout = CodeLayout::uniform(2048);

    std::vector<std::unique_ptr<ScriptedDispatcher>> disps;
    std::vector<std::unique_ptr<ICache>> caches;
    std::vector<std::unique_ptr<Core>> cores;
    for (unsigned i = 0; i < 4; ++i) {
        disps.push_back(std::make_unique<ScriptedDispatcher>());
        OpList ops;
        OpRecorder r(ops, FuncTag::SendFrame);
        for (int k = 0; k < 50; ++k)
            r.load(0x100);
        disps.back()->push(std::move(ops));
        caches.push_back(std::make_unique<ICache>(imem));
        cores.push_back(std::make_unique<Core>(eq, cpu, i, *disps.back(),
                                               spad, *caches.back(),
                                               layout, profile));
        cores.back()->start();
    }
    eq.runUntil(100 * tickPerUs);
    for (auto &c : cores)
        c->stop();
    eq.run();

    std::uint64_t conflicts = 0;
    for (auto &c : cores)
        conflicts += c->stats().conflictCycles;
    EXPECT_GT(conflicts, 100u); // 4 cores fighting over one bank
}
