/**
 * @file
 * External GDDR SDRAM frame memory behind the 128-bit internal bus.
 *
 * The paper isolates frame contents in a 64-bit 500 MHz GDDR SDRAM (peak
 * 64 Gb/s) reached over a 128-bit bus shared by the PCI-side DMA engines
 * and the MAC.  The bus moves one 16 B beat per 500 MHz cycle, matching
 * the DDR data rate, so a single combined resource models both.
 *
 * Modeled effects:
 *  - round-robin burst arbitration among the four streaming assists; a
 *    granted burst (up to one full 1518 B frame) is not preempted, which
 *    is what lets the streams approach peak bandwidth;
 *  - per-bank open-row tracking with a row-activation penalty on row
 *    misses (this produces the "up to 27 CPU cycles" worst-case latency);
 *  - 8-byte word granularity: bursts that start or end unaligned consume
 *    the full words, so consumed bandwidth exceeds useful bandwidth
 *    (Table 4's 39.5 -> 39.7 Gb/s effect).
 *
 * Contents are real bytes so end-to-end payload integrity is testable.
 */

#ifndef TENGIG_MEM_SDRAM_HH
#define TENGIG_MEM_SDRAM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "mem/overlay.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tengig {

namespace obs { class StatGroup; }

/**
 * Combined internal-bus + GDDR SDRAM timing and storage model.
 */
class GddrSdram : public Clocked
{
  public:
    using Callback = std::function<void()>;

    /// @name Device geometry (fixed)
    /// @{
    static constexpr std::size_t capacityBytes = 8 * 1024 * 1024;
    static constexpr unsigned banks = 8;
    static constexpr unsigned rowBytes = 2048;
    static constexpr unsigned rowActivateCycles = 9; //!< bus cycles/miss
    static constexpr unsigned numRequesters = 5; //!< 4 assists + core path
    /// @}

    static_assert(banks >= 1, "sdram needs at least one bank");
    static_assert(isPowerOfTwo(rowBytes),
                  "sdram row size must be a power of two");

    GddrSdram(EventQueue &eq, const ClockDomain &domain);

    /**
     * Issue a timed burst.  @p cb fires when the last beat completes.
     * Data movement is performed functionally at completion time.
     *
     * @param requester Arbitration identity.
     * @param addr Start byte address.
     * @param len Burst length in bytes (0 allowed: cb fires next edge).
     */
    void request(unsigned requester, Addr addr, std::size_t len,
                 bool is_write, Callback cb);

    /// @name Untimed storage access
    /// @{
    void writeBytes(Addr addr, const std::uint8_t *src, std::size_t len);
    void readBytes(Addr addr, std::uint8_t *dst, std::size_t len) const;
    std::size_t capacity() const { return mem.size(); }

    /** Overlay store: span posting, descriptor views, assist copies. */
    OverlayMem &store() { return mem; }
    const OverlayMem &store() const { return mem; }

    /** Descriptor fast path for a whole frame at @p addr (see
     *  OverlayMem::viewFrame). */
    std::optional<FrameDesc>
    viewFrame(Addr addr, std::size_t len) const
    {
        return mem.viewFrame(addr, len);
    }
    /// @}

    /// @name Statistics (Table 4: frame memory)
    /// @{
    std::uint64_t usefulBytes() const { return useful.value(); }
    std::uint64_t transferredBytes() const { return transferred.value(); }
    std::uint64_t rowActivations() const { return activations.value(); }
    std::uint64_t burstCount() const { return bursts.value(); }
    std::uint64_t busyTickCount() const { return busyTicks.value(); }

    /** Consumed (wire-level) bandwidth in Gb/s over [0, now]. */
    double
    consumedBandwidthGbps(Tick now) const
    {
        if (now == 0)
            return 0.0;
        return static_cast<double>(transferred.value()) * 8.0 /
               (static_cast<double>(now) / tickPerSec) / 1e9;
    }

    /** Peak bandwidth in Gb/s (16 B per bus cycle). */
    double
    peakBandwidthGbps() const
    {
        return beatBytes * 8.0 * clockDomain().frequencyMhz() * 1e6 / 1e9;
    }

    /** Register counters into the owner's stat tree (src/obs). */
    void registerStats(obs::StatGroup &g) const;
    /// @}

    /** Timeline row for burst spans (src/obs trace recorder). */
    void setTraceLane(unsigned lane) { traceLane = lane; }

  private:
    struct Burst
    {
        unsigned requester;
        Addr addr;
        std::size_t len;
        bool isWrite;
        Callback cb;
    };

    void scheduleArbitration();
    void arbitrate();
    unsigned bankOf(Addr addr) const;
    std::uint64_t rowOf(Addr addr) const;

    static constexpr unsigned beatBytes = 16;   //!< 128-bit bus beat
    static constexpr unsigned wordBytes = 8;    //!< SDRAM word granularity

    OverlayMem mem;
    std::vector<std::int64_t> openRow;  //!< -1 = closed
    std::deque<Burst> queue;
    unsigned rrNext = 0;
    bool busy = false;
    bool arbScheduled = false;
    Tick busUntil = 0;
    unsigned traceLane = 0xffffffffu; //!< obs::noTraceLane

    stats::Counter useful;
    stats::Counter transferred;
    stats::Counter activations;
    stats::Counter bursts;
    stats::Counter busyTicks;
};

} // namespace tengig

#endif // TENGIG_MEM_SDRAM_HH
