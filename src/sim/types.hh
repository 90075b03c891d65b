/**
 * @file
 * Fundamental simulation types shared by every module.
 */

#ifndef TENGIG_SIM_TYPES_HH
#define TENGIG_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace tengig {

/** Simulation time in picoseconds. */
using Tick = std::uint64_t;

/** Sentinel for "no scheduled time". */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Number of ticks in common wall-clock units. */
constexpr Tick tickPerPs = 1;
constexpr Tick tickPerNs = 1000 * tickPerPs;
constexpr Tick tickPerUs = 1000 * tickPerNs;
constexpr Tick tickPerMs = 1000 * tickPerUs;
constexpr Tick tickPerSec = 1000 * tickPerMs;

/** Count of clock cycles within one clock domain. */
using Cycles = std::uint64_t;

/** Byte address within a modeled memory. */
using Addr = std::uint64_t;

/** True when @p v is a nonzero power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Convert a frequency in MHz to a clock period in ticks. */
constexpr Tick
periodFromMhz(double mhz)
{
    return static_cast<Tick>(1e6 / mhz + 0.5);
}

/** Convert a clock period in ticks back to a frequency in MHz. */
constexpr double
mhzFromPeriod(Tick period)
{
    return 1e6 / static_cast<double>(period);
}

} // namespace tengig

#endif // TENGIG_SIM_TYPES_HH
