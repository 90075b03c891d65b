#include "icache.hh"

#include "sim/logging.hh"

namespace tengig {

ICache::ICache(InstructionMemory &imem_, std::size_t capacity,
               unsigned assoc, unsigned line_size)
    : imem(imem_), lineBytes(line_size), ways(assoc)
{
    fatal_if(line_size == 0 || (line_size & (line_size - 1)),
             "icache line size must be a power of two");
    fatal_if(assoc == 0, "icache associativity must be >= 1");
    std::size_t num_lines = capacity / line_size;
    fatal_if(num_lines % assoc != 0,
             "icache capacity/line/assoc mismatch");
    numSets = static_cast<unsigned>(num_lines / assoc);
    fatal_if(numSets == 0 || (numSets & (numSets - 1)),
             "icache set count must be a power of two");
    lines.resize(num_lines);
    while ((1u << lineShiftBits) < lineBytes)
        ++lineShiftBits;
    while ((1u << setShiftBits) < numSets)
        ++setShiftBits;
    setMask = numSets - 1;
}

Tick
ICache::lookupSet(Addr line_addr, Tick now)
{
    lastLine = line_addr;
    lastValid = true;
    unsigned set = static_cast<unsigned>(line_addr & setMask);
    Addr tag = line_addr >> setShiftBits;
    Line *base = &lines[static_cast<std::size_t>(set) * ways];

    ++useClock;
    for (unsigned w = 0; w < ways; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUse = useClock;
            ++hitCount;
            return 0;
        }
    }

    // Miss: victim = invalid way if any, else true-LRU.
    ++missCount;
    Line *victim = &base[0];
    for (unsigned w = 0; w < ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock;

    Tick done = imem.fill(now, lineBytes);
    return done > now ? done - now : 0;
}

bool
ICache::probe(Addr pc) const
{
    Addr line_addr = pc >> lineShiftBits;
    unsigned set = static_cast<unsigned>(line_addr & setMask);
    Addr tag = line_addr >> setShiftBits;
    const Line *base = &lines[static_cast<std::size_t>(set) * ways];
    for (unsigned w = 0; w < ways; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
ICache::flush()
{
    for (auto &l : lines)
        l.valid = false;
    lastValid = false;
}

} // namespace tengig
