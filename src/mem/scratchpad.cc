#include "scratchpad.hh"

#include <algorithm>
#include <bit>

#include "obs/stat_registry.hh"

namespace tengig {

namespace {

/** Minimum scratchpad access latency in CPU cycles (request + access). */
constexpr Cycles accessLatency = 2;

/** Write-accept latency: the store buffer drains one cycle after grant. */
constexpr Cycles writeAcceptLatency = 1;

} // namespace

Scratchpad::Scratchpad(EventQueue &eq, const ClockDomain &domain,
                       unsigned requesters, std::size_t capacity,
                       unsigned num_banks)
    : Clocked(eq, domain), store(capacity), banks(num_banks),
      numRequesters(requesters)
{
    fatal_if(num_banks == 0, "scratchpad needs at least one bank");
}

unsigned
Scratchpad::bankOf(Addr addr) const
{
    return static_cast<unsigned>(
        (addr / interleaveBytes) % banks.size());
}

void
Scratchpad::access(unsigned requester, Addr addr, SpadOp op,
                   std::uint32_t wdata, Callback cb)
{
    panic_if(requester >= numRequesters,
             "bad scratchpad requester ", requester);
    unsigned b = bankOf(addr);
    Bank &bank = banks[b];
    bank.queue.push_back(Request{requester, addr, op, wdata, std::move(cb),
                                 curCycle()});
    scheduleService(b);
}

void
Scratchpad::scheduleService(unsigned b)
{
    Bank &bank = banks[b];
    if (bank.serviceScheduled || bank.queue.empty())
        return;
    bank.serviceScheduled = true;
    Tick at = std::max(clockDomain().nextEdgeAtOrAfter(curTick()),
                       clockDomain().edge(bank.nextFree));
    eventQueue().schedule(at, [this, b] { serviceBank(b); },
                          EventPriority::HardwareProgress);
}

void
Scratchpad::serviceBank(unsigned b)
{
    Bank &bank = banks[b];
    bank.serviceScheduled = false;
    if (bank.queue.empty())
        return;

    // Round-robin among requesters with pending work in this bank: scan
    // requester ids starting at rrNext and grant the first match.  A
    // lone request (the overwhelmingly common case) needs no scan --
    // every priority order grants it.
    std::size_t pick = 0;
    if (bank.queue.size() > 1) {
        bool found = false;
        for (unsigned step = 0; step < numRequesters && !found; ++step) {
            unsigned want = (bank.rrNext + step) % numRequesters;
            for (std::size_t i = 0; i < bank.queue.size(); ++i) {
                if (bank.queue[i].requester == want) {
                    pick = i;
                    found = true;
                    break;
                }
            }
        }
    }

    Request req = std::move(bank.queue[pick]);
    bank.queue.erase(bank.queue.begin() +
                     static_cast<std::ptrdiff_t>(pick));
    bank.rrNext = (req.requester + 1) % numRequesters;

    ++bank.accesses;
    Cycles grant_cycle = curCycle();
    Cycles conflict = grant_cycle > req.arrival
        ? grant_cycle - req.arrival : 0;
    bank.conflictCycles += conflict;

    switch (req.op) {
      case SpadOp::Read:
        ++reads;
        break;
      case SpadOp::Write:
      case SpadOp::WriteTiming:
        ++writes;
        break;
      default:
        ++rmws;
        break;
    }

    std::uint32_t result = executeAt(req);
    bool is_write =
        req.op == SpadOp::Write || req.op == SpadOp::WriteTiming;
    if (tracer) {
        // RMW operations read and write; trace them as writes (they
        // dirty the line under any coherence protocol).
        bool traced_write = is_write || req.op == SpadOp::AtomicSet ||
            req.op == SpadOp::AtomicUpdate ||
            req.op == SpadOp::AtomicTestSet ||
            req.op == SpadOp::RmwTiming;
        tracer(req.requester, req.addr & ~static_cast<Addr>(3),
               traced_write);
    }
    Cycles done = is_write ? writeAcceptLatency : accessLatency;
    if (req.cb) {
        scheduleCycles(done,
                       [cb = std::move(req.cb), result, conflict,
                        is_write]() mutable {
                           cb(Response{result, conflict, is_write});
                       },
                       EventPriority::HardwareProgress);
    }

    // One grant per cycle.
    bank.nextFree = grant_cycle + 1;
    if (!bank.queue.empty()) {
        bank.serviceScheduled = true;
        eventQueue().schedule(clockDomain().edge(bank.nextFree),
                              [this, b] { serviceBank(b); },
                              EventPriority::HardwareProgress);
    }
}

std::uint32_t
Scratchpad::executeAt(const Request &req)
{
    Addr word_addr = req.addr & ~static_cast<Addr>(3);
    switch (req.op) {
      case SpadOp::Read:
        return store.loadWord(word_addr);
      case SpadOp::Write:
        store.storeWord(word_addr, req.wdata);
        return 0;
      case SpadOp::AtomicSet:
        return functionalAtomicSet(word_addr, req.wdata & 31);
      case SpadOp::AtomicUpdate:
        return functionalAtomicUpdate(word_addr, req.wdata & 31);
      case SpadOp::AtomicTestSet: {
        std::uint32_t old = store.loadWord(word_addr);
        store.storeWord(word_addr, 1);
        return old;
      }
      case SpadOp::WriteTiming:
      case SpadOp::RmwTiming:
        return 0;
    }
    panic("[scratchpad] unreachable op ",
          static_cast<unsigned>(req.op), " at addr ", req.addr,
          " @tick ", curTick());
}

std::uint32_t
Scratchpad::functionalAtomicSet(Addr word_addr, unsigned bit)
{
    std::uint32_t v = store.loadWord(word_addr);
    v |= (1u << bit);
    store.storeWord(word_addr, v);
    return v;
}

std::uint32_t
Scratchpad::functionalAtomicUpdate(Addr word_addr, unsigned start_bit)
{
    // Scan for consecutive set bits starting at start_bit within this one
    // aligned 32-bit word, clear them, and return the count cleared.
    std::uint32_t v = store.loadWord(word_addr);
    std::uint32_t cleared = 0;
    for (unsigned bit = start_bit; bit < 32; ++bit) {
        if (!(v & (1u << bit)))
            break;
        v &= ~(1u << bit);
        ++cleared;
    }
    store.storeWord(word_addr, v);
    return cleared;
}

std::uint64_t
Scratchpad::totalAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &b : banks)
        n += b.accesses.value();
    return n;
}

std::uint64_t
Scratchpad::totalConflictCycles() const
{
    std::uint64_t n = 0;
    for (const auto &b : banks)
        n += b.conflictCycles.value();
    return n;
}

double
Scratchpad::consumedBandwidthGbps(Tick now) const
{
    if (now == 0)
        return 0.0;
    double bits = static_cast<double>(totalAccesses()) * 32.0;
    double seconds = static_cast<double>(now) / tickPerSec;
    return bits / seconds / 1e9;
}

void
Scratchpad::registerStats(obs::StatGroup &g) const
{
    g.derived("accesses",
              [this] { return static_cast<double>(totalAccesses()); },
              "crossbar transactions granted");
    g.add("reads", reads);
    g.add("writes", writes);
    g.add("rmws", rmws, "atomic set/update/test-and-set operations");
    g.derived("conflictCycles",
              [this] {
                  return static_cast<double>(totalConflictCycles());
              },
              "grant delay beyond the 2-cycle minimum");
    for (std::size_t i = 0; i < banks.size(); ++i) {
        obs::StatGroup &b = g.group("bank" + std::to_string(i));
        b.add("accesses", banks[i].accesses);
        b.add("conflictCycles", banks[i].conflictCycles);
    }
}

} // namespace tengig
