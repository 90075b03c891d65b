/**
 * @file
 * Micro-operation stream replayed by a core's timing model.
 *
 * Firmware handlers execute *functionally* once at dispatch time (inside
 * the discrete-event scheduler, hence atomically) and record the stream
 * of instructions and memory accesses the real MIPS-subset firmware
 * would have executed.  The owning core then replays that stream through
 * the 5-stage pipeline + scratchpad-crossbar timing model, so pipeline
 * bubbles, bank conflicts, I-cache misses and lock contention cost what
 * the paper's hardware would pay.  Hardware programming (DMA and MAC
 * command writes, lock releases) are Action entries that fire when the
 * replay reaches them, which keeps producer->consumer latencies honest.
 *
 * MicroOps are 12-byte trivially-copyable PODs; the action closures live
 * out-of-line in the OpList's `actions` vector and are consumed in
 * stream order when the replay reaches each Action op.  That split keeps
 * re-emission cheap: no per-op closure construction/destruction.
 */

#ifndef TENGIG_PROC_MICRO_OP_HH
#define TENGIG_PROC_MICRO_OP_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace tengig {

/**
 * Firmware accounting buckets, matching the function rows of the
 * paper's Tables 5 and 6.
 */
enum class FuncTag : std::uint8_t
{
    FetchSendBd,
    SendFrame,
    SendDispatch,   //!< send-side dispatch and ordering
    SendLock,
    FetchRecvBd,
    RecvFrame,
    RecvDispatch,   //!< receive-side dispatch and ordering
    RecvLock,
    Idle,
    NumTags
};

constexpr std::size_t numFuncTags =
    static_cast<std::size_t>(FuncTag::NumTags);

/** Human-readable bucket name. */
const char *funcTagName(FuncTag t);

/** Kinds of replayed operations. */
enum class OpKind : std::uint8_t
{
    Alu,      //!< count instructions + hazard stall cycles
    MemRead,  //!< one load through the crossbar
    MemWrite, //!< one store through the crossbar (store-buffered)
    MemRmw,   //!< one atomic RMW / test-and-set through the crossbar
    Action,   //!< zero-cost closure (hardware trigger, lock release)
};

/**
 * One replayed operation.  Trivially copyable: Action closures are
 * stored out-of-line in OpList::actions and consumed in stream order.
 */
struct MicroOp
{
    OpKind kind = OpKind::Alu;
    FuncTag tag = FuncTag::Idle;
    std::uint16_t count = 1;   //!< Alu: instruction count
    std::uint16_t hazard = 0;  //!< Alu: extra pipeline stall cycles
    std::uint32_t addr = 0;    //!< memory ops: scratchpad address
};

static_assert(std::is_trivially_copyable_v<MicroOp>,
              "op streams must stay flat arrays of PODs");

/**
 * A recorded handler invocation: the op stream plus bookkeeping the
 * core uses for accounting.  The closures of Action ops are held in
 * `actions`, in the same order as the Action entries in `ops`.
 */
struct OpList
{
    /** 48 inline bytes cover every handler action closure (the largest
     *  carries a TxFrameInfo + slot address + sequence number). */
    using Action = SmallFn<void(), 48>;

    std::vector<MicroOp> ops;
    std::vector<Action> actions;
    bool idlePoll = false; //!< true when this is an empty-handed poll

    bool empty() const { return ops.empty(); }
    std::size_t size() const { return ops.size(); }

    /** Reset for reuse, keeping the vectors' capacity. */
    void
    clear()
    {
        ops.clear();
        actions.clear();
        idlePoll = false;
    }
};

/**
 * Builder used by firmware handlers to record their op stream: every
 * call appends MicroOps to the target list.
 */
class OpRecorder
{
  public:
    /**
     * Record into @p target, which is cleared first; its vector
     * capacity is reused, so per-poll recording does not allocate in
     * steady state.
     */
    OpRecorder(OpList &target, FuncTag initial)
        : list(target), cur(initial)
    {
        target.clear();
    }

    /** Switch the accounting bucket for subsequent ops. */
    void tag(FuncTag t) { cur = t; }
    FuncTag tag() const { return cur; }

    /** @p n straight-line instructions, plus optional stall cycles. */
    void
    alu(unsigned n, unsigned hazard_cycles = 0)
    {
        if (n == 0 && hazard_cycles == 0)
            return;
        // Merge with a preceding Alu op in the same bucket to keep the
        // replayed stream compact.
        if (!list.ops.empty()) {
            MicroOp &back = list.ops.back();
            if (back.kind == OpKind::Alu && back.tag == cur &&
                back.count + n < 0xffff && back.hazard + hazard_cycles <
                0xffff) {
                back.count = static_cast<std::uint16_t>(back.count + n);
                back.hazard =
                    static_cast<std::uint16_t>(back.hazard + hazard_cycles);
                return;
            }
        }
        MicroOp op;
        op.kind = OpKind::Alu;
        op.tag = cur;
        op.count = static_cast<std::uint16_t>(n);
        op.hazard = static_cast<std::uint16_t>(hazard_cycles);
        list.ops.push_back(op);
    }

    void load(Addr addr) { mem(OpKind::MemRead, addr); }
    void store(Addr addr) { mem(OpKind::MemWrite, addr); }
    void rmw(Addr addr) { mem(OpKind::MemRmw, addr); }

    /** Closure executed when the replay reaches this point. */
    template <typename F>
    void
    action(F &&fn)
    {
        OpList::Action a(std::forward<F>(fn));
        if (!a)
            return;
        MicroOp op;
        op.kind = OpKind::Action;
        op.tag = cur;
        list.ops.push_back(op);
        list.actions.push_back(std::move(a));
    }

  private:
    void
    mem(OpKind kind, Addr addr)
    {
        panic_if(addr > 0xffffffffu,
                 "micro-op scratchpad address out of range: ", addr);
        MicroOp op;
        op.kind = kind;
        op.tag = cur;
        op.addr = static_cast<std::uint32_t>(addr);
        list.ops.push_back(op);
    }

    OpList &list;
    FuncTag cur;
};

/**
 * Per-bucket execution profile accumulated by the cores, feeding
 * Tables 1, 5 and 6.
 */
struct FirmwareProfile
{
    struct Bucket
    {
        std::uint64_t instructions = 0;
        std::uint64_t memAccesses = 0;
        std::uint64_t cycles = 0;
    };

    Bucket buckets[numFuncTags];

    Bucket &
    operator[](FuncTag t)
    {
        return buckets[static_cast<std::size_t>(t)];
    }

    const Bucket &
    operator[](FuncTag t) const
    {
        return buckets[static_cast<std::size_t>(t)];
    }

    void
    reset()
    {
        for (auto &b : buckets)
            b = Bucket{};
    }
};

} // namespace tengig

#endif // TENGIG_PROC_MICRO_OP_HH
