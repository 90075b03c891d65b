#include "sdram.hh"

#include <algorithm>
#include <cstring>

#include "obs/stat_registry.hh"
#include "obs/trace_log.hh"

namespace tengig {

GddrSdram::GddrSdram(EventQueue &eq, const ClockDomain &domain)
    : Clocked(eq, domain), mem(capacityBytes), openRow(banks, -1)
{}

unsigned
GddrSdram::bankOf(Addr addr) const
{
    return static_cast<unsigned>((addr / rowBytes) % banks);
}

std::uint64_t
GddrSdram::rowOf(Addr addr) const
{
    return addr / (static_cast<std::uint64_t>(rowBytes) * banks);
}

void
GddrSdram::request(unsigned requester, Addr addr, std::size_t len,
                   bool is_write, Callback cb)
{
    panic_if(requester >= numRequesters,
             "bad sdram requester ", requester);
    mem.boundsCheck(addr, len, "sdram burst");
    queue.push_back(Burst{requester, addr, len, is_write, std::move(cb)});
    scheduleArbitration();
}

void
GddrSdram::scheduleArbitration()
{
    if (arbScheduled || queue.empty())
        return;
    arbScheduled = true;
    Tick at = std::max(clockDomain().nextEdgeAtOrAfter(curTick()),
                       busUntil);
    eventQueue().schedule(at, [this] { arbitrate(); },
                          EventPriority::HardwareProgress);
}

void
GddrSdram::arbitrate()
{
    arbScheduled = false;
    if (queue.empty())
        return;

    // Round-robin over requester ids; a granted burst runs to completion.
    std::size_t pick = 0;
    bool found = false;
    for (unsigned step = 0; step < numRequesters && !found;
         ++step) {
        unsigned want = (rrNext + step) % numRequesters;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (queue[i].requester == want) {
                pick = i;
                found = true;
                break;
            }
        }
    }
    Burst b = std::move(queue[pick]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
    rrNext = (b.requester + 1) % numRequesters;

    ++bursts;

    // Word-align the transfer window: unaligned leading/trailing bytes
    // still move across the pins and are masked, so they count as
    // consumed (but not useful) bandwidth.
    Addr first = b.addr & ~static_cast<Addr>(wordBytes - 1);
    Addr last = (b.addr + b.len + wordBytes - 1) &
                ~static_cast<Addr>(wordBytes - 1);
    std::size_t wire_bytes = b.len ? last - first : 0;

    // Row activations: walk the row spans the burst touches.
    Cycles activate_cycles = 0;
    if (b.len) {
        Addr a = first;
        while (a < last) {
            unsigned bank = bankOf(a);
            std::int64_t row = static_cast<std::int64_t>(rowOf(a));
            if (openRow[bank] != row) {
                openRow[bank] = row;
                ++activations;
                activate_cycles += rowActivateCycles;
            }
            Addr row_end = (a / rowBytes + 1) * rowBytes;
            a = std::min<Addr>(row_end, last);
        }
    }

    Cycles beats = (wire_bytes + beatBytes - 1) / beatBytes;
    Tick start = clockDomain().nextEdgeAtOrAfter(curTick());
    Tick done = start +
        clockDomain().cyclesToTicks(activate_cycles + beats + 1);
    busUntil = done;
    busyTicks += done - start;
    useful += b.len;
    transferred += wire_bytes;

    if (obs::TraceLog *tl = traceLog();
        tl && tl->enabled() && traceLane != obs::noTraceLane) {
        tl->complete(traceLane,
                     std::string(b.isWrite ? "wr " : "rd ") +
                         std::to_string(b.len) + "B",
                     start, done - start, "sdram");
    }

    eventQueue().schedule(done,
                          [this, cb = std::move(b.cb)] {
                              if (cb)
                                  cb();
                              scheduleArbitration();
                          },
                          EventPriority::HardwareProgress);
}

void
GddrSdram::writeBytes(Addr addr, const std::uint8_t *src, std::size_t len)
{
    mem.writeBytes(addr, src, len, "sdram write");
}

void
GddrSdram::readBytes(Addr addr, std::uint8_t *dst, std::size_t len) const
{
    mem.readBytes(addr, dst, len, "sdram read");
}

void
GddrSdram::registerStats(obs::StatGroup &g) const
{
    g.add("bursts", bursts, "granted bursts (run to completion)");
    g.add("usefulBytes", useful, "payload bytes requested by bursts");
    g.add("transferredBytes", transferred,
          "wire-level bytes including word-alignment padding");
    g.add("rowActivations", activations);
    g.add("busyTicks", busyTicks, "ticks the shared bus was occupied");
    g.derived("materializations",
              [this] { return static_cast<double>(mem.materializations()); },
              "pattern spans expanded to bytes (0 = fully virtual)");
}

} // namespace tengig
