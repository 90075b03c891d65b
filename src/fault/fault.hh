/**
 * @file
 * Deterministic, seeded fault injection for the NIC datapath.
 *
 * A FaultPlan describes *what* can go wrong (per-class rates) and
 * *when* (an optional storm window in absolute ticks).  A FaultClock
 * is an independent deterministic random stream for one injection
 * site, derived from the plan seed and a site id, so adding or
 * removing one site never perturbs the fault sequence seen by
 * another.  The FaultInjector owns the per-site clocks plus a counter
 * for every fault injected and every recovery action taken; the
 * accounting invariant is that each injected fault class is matched
 * exactly by its detection/recovery counter downstream (see
 * DESIGN.md §12).
 *
 * Multi-tenant runs (src/vnic) give every virtual function its own
 * FaultPlan: the injector then holds one tenant per VF, with streams
 * derived from (tenant seed, site + (vf << 8)).  Tenant 0's site ids
 * are exactly the legacy ids, so a single-tenant injector is
 * bit-identical to the pre-vnic subsystem, and a storm armed on one
 * tenant cannot perturb -- or even consume randomness from -- any
 * other tenant's streams (DESIGN.md §13).
 *
 * With a default (all-zero) plan, nothing in the datapath consults
 * the injector: timing, stat trees and bench JSON stay bit-identical
 * to a build without the subsystem, which the determinism guard in
 * tests/test_sim_speed.cc verifies.
 */

#ifndef TENGIG_FAULT_FAULT_HH
#define TENGIG_FAULT_FAULT_HH

#include <cstdint>
#include <vector>

#include "net/frame.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tengig {

namespace obs { class StatGroup; }

/**
 * Everything that can go wrong, and how often.  Rates are per-event
 * Bernoulli probabilities (per frame, per DMA completion, per
 * doorbell ring).  All-zero rates (the default) disable the
 * subsystem entirely.
 */
struct FaultPlan
{
    /** Seed for all per-site fault streams. */
    std::uint64_t seed = 0x1005e7a91ULL;

    /// @name Storm window (absolute simulation ticks)
    /// @{
    Tick stormStart = 0;  //!< first tick faults may fire
    Tick stormEnd = 0;    //!< 0 = no end; else faults stop here
    /// @}

    /// @name Per-class injection rates
    /// @{
    double wireCrcRate = 0.0;      //!< bit-flip (CRC-detectable) per rx frame
    double wireTruncateRate = 0.0; //!< cut frame short (>= 60 B) per rx frame
    double wireRuntRate = 0.0;     //!< shrink below 60 B per rx frame
    double memFaultRate = 0.0;     //!< transient error per DMA transfer
    double doorbellDropRate = 0.0; //!< lost notification per doorbell ring
    double txPoisonRate = 0.0;     //!< firmware-visible poison per tx frame
    /// @}

    /** Firmware watchdog period; 0 = off. */
    Cycles watchdogCycles = 0;

    /// @name Doorbell retry (fixed)
    /// @{
    static constexpr Tick doorbellRetryTimeout = 20 * tickPerUs; //!< base
    static constexpr unsigned doorbellBackoffMax = 6; //!< timeout doublings
    /// @}

    /** True when any part of the subsystem must be wired up. */
    bool
    enabled() const
    {
        return wireCrcRate > 0.0 || wireTruncateRate > 0.0 ||
               wireRuntRate > 0.0 || memFaultRate > 0.0 ||
               doorbellDropRate > 0.0 || txPoisonRate > 0.0 ||
               watchdogCycles != 0;
    }
};

/**
 * One injection site's private deterministic random stream.  Streams
 * are decorrelated by mixing the site id into the plan seed through
 * SplitMix64 before seeding xoshiro.
 */
class FaultClock
{
  public:
    FaultClock(std::uint64_t plan_seed, std::uint64_t site_id)
        : rng(deriveSeed(plan_seed, site_id))
    {}

    /** Bernoulli roll; rate <= 0 never consumes randomness. */
    bool
    roll(double rate)
    {
        return rate > 0.0 && rng.chance(rate);
    }

    /** Raw stream for picking corruption offsets/lengths. */
    Rng &raw() { return rng; }

  private:
    static std::uint64_t
    deriveSeed(std::uint64_t plan_seed, std::uint64_t site_id)
    {
        std::uint64_t s = plan_seed ^ (site_id * 0x9e3779b97f4a7c15ULL);
        return splitmix64(s);
    }

    Rng rng;
};

/**
 * The per-run fault source: rolls faults at each wired site and keeps
 * the injected/recovered accounting.  One instance per NicController
 * run; every datapath hook holds a pointer that is null when the plan
 * is disabled.  Each roll/note entry point takes the tenant (VF)
 * index, defaulting to 0 -- the only tenant on single-function runs.
 */
class FaultInjector
{
  public:
    /** Injected/recovered counters for one tenant. */
    struct Counters
    {
        stats::Counter wireCrc;
        stats::Counter wireTrunc;
        stats::Counter wireRunt;
        stats::Counter memFaults;
        stats::Counter memRetries;
        stats::Counter memDrops;
        stats::Counter doorbellLost;
        stats::Counter doorbellRetries;
        stats::Counter doorbellBackoffTicks;
        stats::Counter txPoisoned;
        stats::Counter poisonSkips;

        std::uint64_t
        totalInjected() const
        {
            return wireCrc.value() + wireTrunc.value() +
                   wireRunt.value() + memFaults.value() +
                   doorbellLost.value() + txPoisoned.value();
        }
    };

    /** Single-function NIC: one tenant driven by @p plan. */
    FaultInjector(const FaultPlan &plan, EventQueue &eq);

    /** Multi-tenant NIC: one tenant per VF, each with its own plan. */
    FaultInjector(const std::vector<FaultPlan> &plans, EventQueue &eq);

    std::size_t tenantCount() const { return tenants.size(); }

    /** True while inside tenant @p vf's storm window. */
    bool
    stormActive(unsigned vf = 0) const
    {
        const FaultPlan &p = tenants[vf].plan;
        Tick now = eq.curTick();
        return now >= p.stormStart &&
               (p.stormEnd == 0 || now < p.stormEnd);
    }

    /// @name Wire faults (before MAC RX)
    /// @{
    /**
     * Possibly corrupt one arriving frame in place.  At most one
     * fault class applies per frame (rolled in fixed order: CRC,
     * truncation, runt).  @return true when the frame was corrupted.
     */
    bool applyWireFault(FrameData &fd, unsigned vf = 0);

    std::uint64_t wireCrcInjected() const { return sum(&Counters::wireCrc); }
    std::uint64_t wireTruncInjected() const
    {
        return sum(&Counters::wireTrunc);
    }
    std::uint64_t wireRuntInjected() const
    {
        return sum(&Counters::wireRunt);
    }
    /// @}

    /// @name Transient memory faults (DmaAssist)
    /// @{
    /** Roll a transient error for one completed DMA transfer. */
    bool rollMemFault(unsigned vf = 0);
    void noteMemRetry(unsigned vf = 0) { ++tenants[vf].ctr.memRetries; }
    void noteMemDrop(unsigned vf = 0) { ++tenants[vf].ctr.memDrops; }

    std::uint64_t memFaultsInjected() const
    {
        return sum(&Counters::memFaults);
    }
    std::uint64_t memRetriesTaken() const
    {
        return sum(&Counters::memRetries);
    }
    std::uint64_t memDropsTaken() const { return sum(&Counters::memDrops); }
    /// @}

    /// @name Lost doorbells (host driver -> firmware mailbox)
    /// @{
    /** Roll a lost notification for one doorbell ring. */
    bool rollDoorbellDrop(unsigned vf = 0);
    void noteDoorbellRetry(unsigned vf = 0)
    {
        ++tenants[vf].ctr.doorbellRetries;
    }
    /** Account the extra delay one backed-off retry rearm added. */
    void noteDoorbellBackoff(Tick delay, unsigned vf = 0)
    {
        tenants[vf].ctr.doorbellBackoffTicks += delay;
    }

    std::uint64_t doorbellsLost() const
    {
        return sum(&Counters::doorbellLost);
    }
    std::uint64_t doorbellRetriesTaken() const
    {
        return sum(&Counters::doorbellRetries);
    }
    std::uint64_t doorbellBackoffTicks() const
    {
        return sum(&Counters::doorbellBackoffTicks);
    }
    /// @}

    /// @name Firmware-visible per-frame poison (tx commit skip)
    /// @{
    /** Roll poison for one claimed transmit frame. */
    bool rollTxPoison(unsigned vf = 0);
    void notePoisonSkip(unsigned vf = 0)
    {
        ++tenants[vf].ctr.poisonSkips;
    }

    std::uint64_t txFramesPoisoned() const
    {
        return sum(&Counters::txPoisoned);
    }
    std::uint64_t poisonSkipsTaken() const
    {
        return sum(&Counters::poisonSkips);
    }
    /// @}

    /** All injected faults, summed (for "storm really happened"). */
    std::uint64_t
    totalInjected() const
    {
        std::uint64_t n = 0;
        for (const Tenant &t : tenants)
            n += t.ctr.totalInjected();
        return n;
    }

    /** Tenant @p vf's injected/recovered counters. */
    const Counters &counters(unsigned vf = 0) const
    {
        return tenants[vf].ctr;
    }

    /**
     * Register injected/recovered counters into the stat tree.  A
     * single-tenant injector registers its live counters (the legacy
     * tree); a multi-tenant one registers per-class aggregates under
     * the same names, with per-tenant live counters available via
     * registerTenantStats().
     */
    void registerStats(obs::StatGroup &g) const;

    /** Register tenant @p vf's counters (the vf.<id>.fault subtree). */
    void registerTenantStats(obs::StatGroup &g, unsigned vf) const;

    void resetStats();

  private:
    /// @name Per-site stream ids (stable; never renumber)
    /// Tenant vf's site id is `site + (vf << 8)`, so tenant 0 keeps
    /// the legacy ids and streams bit-identically.
    /// @{
    static constexpr std::uint64_t siteWire = 1;
    static constexpr std::uint64_t siteMem = 2;
    static constexpr std::uint64_t siteDoorbell = 3;
    static constexpr std::uint64_t sitePoison = 4;
    /// @}

    struct Tenant
    {
        Tenant(const FaultPlan &p, unsigned vf)
            : plan(p),
              wireClock(p.seed, siteWire + (std::uint64_t(vf) << 8)),
              memClock(p.seed, siteMem + (std::uint64_t(vf) << 8)),
              doorbellClock(p.seed,
                            siteDoorbell + (std::uint64_t(vf) << 8)),
              poisonClock(p.seed, sitePoison + (std::uint64_t(vf) << 8))
        {}

        FaultPlan plan;
        FaultClock wireClock;
        FaultClock memClock;
        FaultClock doorbellClock;
        FaultClock poisonClock;
        Counters ctr;
    };

    std::uint64_t
    sum(const stats::Counter Counters::*m) const
    {
        std::uint64_t n = 0;
        for (const Tenant &t : tenants)
            n += (t.ctr.*m).value();
        return n;
    }

    EventQueue &eq;
    std::vector<Tenant> tenants;
};

/**
 * Lost-doorbell recovery for one doorbell register: the host driver's
 * timeout.  A ring the injector drops arms a retry after
 * FaultPlan::doorbellRetryTimeout; each retry dropped again re-arms
 * with the timeout doubled, up to doorbellBackoffMax doublings, and
 * the delay beyond the base timeout is accounted as doorbell backoff.
 * Doorbell values are monotonic totals, so a retry redelivers the
 * latest value and a ring that gets through makes a pending retry
 * stale.  Used by the controller's physical doorbells and by every
 * VF's virtual doorbell (VnicMux).
 */
class DoorbellRecovery
{
  public:
    /**
     * @param injector Drop source; null delivers every ring.
     * @param vf Tenant whose doorbell stream rolls and counts.
     * @param redeliver Delivers the latest value when a retry gets
     *        through.
     */
    void init(EventQueue &eq, FaultInjector *injector, unsigned vf,
              EventQueue::Callback redeliver);

    /**
     * Ring once.  @retval true Delivered: the caller delivers now.
     * @retval false Lost: a retry redelivers later (an already-armed
     *         retry covers this ring too).
     */
    bool ring();

    /** True while a lost ring awaits its retry. */
    bool pending() const { return timer.scheduled(); }

  private:
    void retry();

    FaultInjector *faults = nullptr;
    unsigned tenant = 0;
    unsigned backoff = 0; //!< consecutive failed retries
    RecurringEvent timer;
    EventQueue::Callback redeliver;
};

} // namespace tengig

#endif // TENGIG_FAULT_FAULT_HH
