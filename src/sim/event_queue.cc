#include "event_queue.hh"

#include <utility>

namespace tengig {

namespace {

constexpr EventId
makeId(std::uint32_t slot, std::uint32_t generation)
{
    return (static_cast<EventId>(slot) + 1) << 32 | generation;
}

/** seq takes the order key's low 56 bits: at 12.5M events per host
 *  second that is about 180 years of scheduling. */
constexpr std::uint64_t maxSeq = std::uint64_t{1} << 56;

/** The order key holds a priority in its top 8 bits. */
constexpr bool
packsInOrderKey(EventPriority p)
{
    return static_cast<int>(p) >= -128 && static_cast<int>(p) <= 127;
}
static_assert(packsInOrderKey(EventPriority::HardwareProgress) &&
                  packsInOrderKey(EventPriority::Default) &&
                  packsInOrderKey(EventPriority::Cpu) &&
                  packsInOrderKey(EventPriority::Stats),
              "every EventPriority must fit in [-128, 127]");

/** (prio + 128) << 56 | seq: priority first, then insertion order. */
constexpr std::uint64_t
orderKey(EventPriority prio, std::uint64_t seq)
{
    return static_cast<std::uint64_t>(static_cast<int>(prio) + 128) << 56 |
           seq;
}

} // namespace

EventQueue::Slot &
EventQueue::acquireSlot()
{
    if (freeHead) {
        Slot &s = *freeHead;
        freeHead = s.nextFree;
        return s;
    }
    panic_if(slots.size() >= 0xffffffffu, "event slot table overflow");
    Slot &s = slots.emplace_back();
    s.index = static_cast<std::uint32_t>(slots.size() - 1);
    return s;
}

EventId
EventQueue::enqueue(Tick when, EventPriority prio, Slot &s)
{
    panic_if(nextSeq >= maxSeq, "event sequence overflow");
    s.alive = true;
    PendingEntry e{when, orderKey(prio, nextSeq++), &s};
    // Nearly every event fires within a cycle or two, so its place is
    // at or near the back (the soonest end): grow the list by one and,
    // scanning from there, shift each entry that fires before the new
    // one a place toward the back.
    std::size_t i = pending.size();
    pending.push_back(e);
    while (i > 0 && laterThan(e, pending[i - 1])) {
        pending[i] = pending[i - 1];
        --i;
    }
    pending[i] = e;
    ++liveCount;
    return makeId(s.index, s.generation);
}

bool
EventQueue::cancel(EventId id)
{
    std::uint64_t encoded = id >> 32;
    if (encoded == 0 || encoded > slots.size())
        return false;
    Slot &s = slots[encoded - 1];
    if (!s.alive || s.generation != static_cast<std::uint32_t>(id))
        return false;
    // The pending entry stays behind as a tombstone; bumping the
    // generation makes it (and any stale copies of this id) dead.
    // run() drops it when it surfaces.
    s.alive = false;
    s.fn.reset();
    ++s.generation;
    --liveCount;
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    // Resets and frees a fired slot once its callback returns or
    // throws.
    struct Retire
    {
        EventQueue &q;
        Slot &s;
        ~Retire()
        {
            s.fn.reset();
            q.releaseSlot(s);
        }
    };

    // The one firing loop: each iteration inspects the soonest entry
    // exactly once; this loop is the simulator's hot spine.
    while (!pending.empty()) {
        const PendingEntry &top = pending.back();
        Slot &s = *top.slot;
        if (!s.alive) {
            // Drop dead tombstones at the soonest end without executing
            // anything -- a slot flag load, no hash lookup -- so
            // empty() reflects reality even when we stop early.
            pending.pop_back();
            releaseSlot(s);
            continue;
        }
        if (top.when > limit)
            break;
        // Commit to this tick, then drain every entry that shares it
        // in one burst: the limit compare and curTick store are paid
        // once per distinct tick, not once per event.  Callbacks that
        // schedule more same-tick work land at the back of `pending`
        // in order, so the burst picks them up exactly as firing one
        // event at a time would.
        Tick t = top.when;
        _curTick = t;
        do {
            Slot &slot = *pending.back().slot;
            pending.pop_back();
            if (!slot.alive) {
                releaseSlot(slot);
                continue;
            }
            // Retire the event before invoking it, so its id no longer
            // cancels and pendingEvents() is exact inside the callback.
            // The slot joins the free list only after the callback, so
            // what the callback schedules lands in other slots, and no
            // slot moves when the table grows: the callback runs where
            // schedule() built it.
            slot.alive = false;
            ++slot.generation;
            --liveCount;
            ++executed;
            Retire retire{*this, slot};
            slot.fn();
        } while (!pending.empty() && pending.back().when == t);
    }
    return _curTick;
}

Tick
EventQueue::runUntil(Tick until)
{
    run(until);
    if (_curTick < until)
        _curTick = until;
    return _curTick;
}

} // namespace tengig
