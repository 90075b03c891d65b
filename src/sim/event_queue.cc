#include "event_queue.hh"

#include <utility>

namespace tengig {

namespace {

constexpr EventId
makeId(std::uint32_t slot, std::uint32_t generation)
{
    return (static_cast<EventId>(slot) + 1) << 32 | generation;
}

} // namespace

std::uint32_t
EventQueue::acquireSlot()
{
    if (!freeSlots.empty()) {
        std::uint32_t idx = freeSlots.back();
        freeSlots.pop_back();
        return idx;
    }
    panic_if(slots.size() >= 0xffffffffu, "event slot table overflow");
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
}

void
EventQueue::releaseSlot(std::uint32_t idx)
{
    freeSlots.push_back(idx);
}

EventId
EventQueue::schedule(Tick when, Callback fn, EventPriority prio)
{
    panic_if(when < _curTick,
             "scheduling event in the past: when=", when,
             " cur=", _curTick);
    panic_if(!fn, "scheduling null event callback");
    std::uint32_t idx = acquireSlot();
    Slot &s = slots[idx];
    s.fn = std::move(fn);
    s.alive = true;
    PendingEntry e{when, static_cast<std::int32_t>(prio), idx, nextSeq++};
    // Nearly every event fires within a cycle or two, so its place is
    // at or near the back (the soonest end); scan from there.
    std::size_t i = pending.size();
    if (i == 0 || !laterThan(e, pending[i - 1])) {
        pending.push_back(e); // fires before everything pending
    } else {
        --i;
        while (i > 0 && laterThan(e, pending[i - 1]))
            --i;
        pending.insert(pending.begin() + i, e);
    }
    ++liveCount;
    return makeId(idx, s.generation);
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
    // The one firing loop: each iteration inspects the soonest entry
    // exactly once; this loop is the simulator's hot spine.
    while (!pending.empty()) {
        const PendingEntry &top = pending.back();
        std::uint32_t idx = top.slot;
        Slot &s = slots[idx];
        if (!s.alive) {
            // Drop dead tombstones at the soonest end without executing
            // anything -- a slot flag load, no hash lookup -- so
            // empty() reflects reality even when we stop early.
            pending.pop_back();
            releaseSlot(idx);
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
            std::uint32_t i = pending.back().slot;
            Slot &slot = slots[i];
            pending.pop_back();
            if (!slot.alive) {
                releaseSlot(i);
                continue;
            }
            // Move the callback out and recycle the slot *before*
            // invoking it, so the callback can schedule (and land in
            // this slot under a fresh generation) without touching
            // freed state.
            Callback fn = std::move(slot.fn);
            slot.alive = false;
            ++slot.generation;
            --liveCount;
            releaseSlot(i);
            ++executed;
            fn();
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
