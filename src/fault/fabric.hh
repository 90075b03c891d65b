/**
 * @file
 * Deterministic fabric-level fault injection for fleet runs.
 *
 * A FabricFaultPlan extends the per-NIC FaultPlan idea (src/fault/
 * fault.hh) to the switch fabric connecting a fleet: per-link down
 * windows (flaps), per-egress frame corruption/drop Bernoulli rates,
 * lost end-to-end acknowledgements, and node-stall episodes that
 * freeze a chosen NIC's cores for K ticks mid-window.
 *
 * Every (link, class) pair draws from its own FaultClock stream, so
 * adding a class or a port never perturbs another stream, and all
 * rolls happen in the single-threaded coordinator pass at window
 * barriers -- chaos runs are therefore bit-identical across thread
 * counts, exactly like the fault-free fleet (DESIGN.md §15/§16).
 *
 * With a default (all-zero) plan the injector is never constructed:
 * the fleet runner keeps a null pointer and runs bit-identical to a
 * build without the subsystem.
 */

#ifndef TENGIG_FAULT_FABRIC_HH
#define TENGIG_FAULT_FABRIC_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tengig {

namespace obs { class StatGroup; }

/**
 * Everything that can go wrong in the fabric, and how often.  Frame
 * rates are per-offered-frame Bernoulli probabilities; the flap and
 * stall rates are per-epoch / per-barrier.  All-zero rates (the
 * default) disable the subsystem entirely.
 */
struct FabricFaultPlan
{
    /** Seed for all per-(link,class) fault streams. */
    std::uint64_t seed = 0xfab51c0ULL;

    /// @name Storm window (absolute simulation ticks)
    /// @{
    Tick stormStart = 0; //!< first tick faults may fire
    Tick stormEnd = 0;   //!< 0 = no end; else faults stop here
    /// @}

    /// @name Link flaps (per egress link)
    /// Each link rolls once per flap epoch; a hit opens a down window
    /// of uniform [flapMinTicks, flapMaxTicks] duration starting at a
    /// uniform offset inside the epoch.  Frames (and acks) whose
    /// fabric traversal lands in a down window are lost.
    /// @{
    double linkFlapRate = 0.0;
    static constexpr Tick flapEpochTicks = 100 * tickPerUs;
    static constexpr Tick flapMinTicks = 20 * tickPerUs;
    static constexpr Tick flapMaxTicks = 60 * tickPerUs;
    /// @}

    static_assert(flapEpochTicks > 0 && flapMinTicks > 0 &&
                  flapMinTicks <= flapMaxTicks,
                  "flap windows need a nonzero epoch and a nonempty "
                  "[min, max] duration range");

    /// @name Per-egress frame faults
    /// @{
    double corruptRate = 0.0; //!< frame arrives CRC-damaged
    double dropRate = 0.0;    //!< frame vanishes mid-fabric
    double ackDropRate = 0.0; //!< reliable-delivery ack lost in transit
    /// @}

    /// @name Node-stall episodes
    /// Rolled once per node per sync barrier; a hit freezes that
    /// NIC's cores for nodeStallTicks starting at a uniform offset in
    /// the next window.  Episodes never overlap on one node.
    /// @{
    double nodeStallRate = 0.0;
    Tick nodeStallTicks = 50 * tickPerUs;
    /// @}

    /** True when any part of the subsystem must be wired up. */
    bool
    enabled() const
    {
        return linkFlapRate > 0.0 || corruptRate > 0.0 ||
               dropRate > 0.0 || ackDropRate > 0.0 ||
               nodeStallRate > 0.0;
    }

    void validate() const;
};

/**
 * The per-run fabric fault source: owns the per-(link,class) clocks,
 * the lazily generated flap windows, and the injected-fault
 * accounting.  Evaluated only by the fleet coordinator at window
 * barriers; never touched from worker threads.
 */
class FabricFaultInjector
{
  public:
    FabricFaultInjector(const FabricFaultPlan &plan, unsigned ports);

    /** True while inside the plan's storm window. */
    bool
    stormActive(Tick t) const
    {
        return t >= _plan.stormStart &&
               (_plan.stormEnd == 0 || t < _plan.stormEnd);
    }

    /**
     * True when egress link @p link is inside a flap down window at
     * @p t.  Pure function of (plan, link, t): windows are generated
     * lazily per epoch from the link's flap stream and cached, so
     * queries may arrive in any tick order.
     */
    bool linkDown(unsigned link, Tick t);

    /// @name Per-frame rolls (storm-gated; consume nothing when the
    /// rate is zero or the storm is inactive at @p t)
    /// @{
    /** Frame vanishes mid-fabric.  Counts `drop` when it fires. */
    bool rollDrop(unsigned link, Tick t);

    /** Frame arrives CRC-damaged.  Counts `corrupt` when it fires. */
    bool rollCorrupt(unsigned link, Tick t);

    /** Reliable-delivery ack lost (Bernoulli part; the caller also
     *  checks linkDown on the reverse path).  Not counted here --
     *  use noteAckLost for the combined class. */
    bool rollAckDrop(unsigned link, Tick t);
    /// @}

    /** Count one frame lost to a down link. */
    void noteLinkKill(unsigned link) { ++links[link].downKills; }

    /** Count one lost ack (Bernoulli or down reverse link). */
    void noteAckLost(unsigned link) { ++links[link].ackLost; }

    /**
     * Roll a node-stall episode for @p node covering the window
     * [now, now + window).  Returns {start, duration} when one fires;
     * rolls are suppressed (and consume nothing) while a previous
     * episode is still running.
     */
    std::optional<std::pair<Tick, Tick>>
    rollNodeStall(unsigned node, Tick now, Tick window);

    /// @name Whole-run accounting (the fleet's delivery ledger)
    /// @{
    std::uint64_t linkDownKills() const { return sumLink(&Link::downKills); }
    std::uint64_t dropsInjected() const { return sumLink(&Link::drops); }

    /** Extend every link's flap generation through @p horizon so the
     *  down_ticks stats cover the whole run. */
    void finalize(Tick horizon);
    /// @}

    /**
     * Register the fabric fault surface into @p g (the fleet "switch"
     * subtree): per-link `link<i>.*` counters plus the per-class
     * injected totals and the summed down time under `chaos.*`.
     * Down ticks are exact once finalize() has run.
     */
    void registerStats(obs::StatGroup &g);

    /** Count a barrier at which @p link was observed down (the
     *  `degraded_windows` surface; sampled by the health monitor). */
    void noteDegradedWindow(unsigned link)
    {
        ++links[link].degradedWindows;
    }

  private:
    /// @name Per-(link,class) stream ids (stable; never renumber)
    /// A link's class streams are `classBase + link * siteStride`;
    /// node-stall streams use `siteNodeStall + node * siteStride`.
    /// All are disjoint from the per-NIC FaultInjector ids by
    /// construction (different plan seed namespace).
    /// @{
    static constexpr std::uint64_t siteStride = 16;
    static constexpr std::uint64_t siteFlap = 1;
    static constexpr std::uint64_t siteDrop = 2;
    static constexpr std::uint64_t siteCorrupt = 3;
    static constexpr std::uint64_t siteAck = 4;
    static constexpr std::uint64_t siteNodeStall = 5;
    /// @}

    struct Link
    {
        Link(const FabricFaultPlan &p, unsigned link)
            : flapClock(p.seed, siteFlap + link * siteStride),
              dropClock(p.seed, siteDrop + link * siteStride),
              corruptClock(p.seed, siteCorrupt + link * siteStride),
              ackClock(p.seed, siteAck + link * siteStride)
        {}

        FaultClock flapClock;
        FaultClock dropClock;
        FaultClock corruptClock;
        FaultClock ackClock;

        /** Merged, disjoint, sorted down windows [start, end). */
        std::vector<std::pair<Tick, Tick>> downWindows;
        std::uint64_t epochsGenerated = 0;

        stats::Counter downKills;
        stats::Counter drops;
        stats::Counter corrupt;
        stats::Counter ackLost;
        stats::Counter degradedWindows;
        stats::Counter downTicks; //!< filled by finalize()
    };

    struct NodeStall
    {
        NodeStall(const FabricFaultPlan &p, unsigned node)
            : clock(p.seed, siteNodeStall + node * siteStride)
        {}

        FaultClock clock;
        Tick stalledUntil = 0;
    };

    /** Generate flap windows for @p l through @p t. */
    void extendFlaps(Link &l, Tick t);

    std::uint64_t
    sumLink(const stats::Counter Link::*m) const
    {
        std::uint64_t n = 0;
        for (const Link &l : links)
            n += (l.*m).value();
        return n;
    }

    FabricFaultPlan _plan;
    std::vector<Link> links;
    std::vector<NodeStall> stalls;
    stats::Counter stallEpisodes;
    stats::Counter stallTicks;
};

} // namespace tengig

#endif // TENGIG_FAULT_FABRIC_HH
