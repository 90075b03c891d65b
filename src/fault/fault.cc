#include "fault/fault.hh"

#include <utility>

#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace tengig {

FaultInjector::FaultInjector(const FaultPlan &plan, EventQueue &eq_)
    : eq(eq_)
{
    tenants.emplace_back(plan, 0);
}

FaultInjector::FaultInjector(const std::vector<FaultPlan> &plans,
                             EventQueue &eq_)
    : eq(eq_)
{
    fatal_if(plans.empty(), "fault injector needs at least one tenant");
    tenants.reserve(plans.size());
    for (unsigned vf = 0; vf < plans.size(); ++vf)
        tenants.emplace_back(plans[vf], vf);
}

bool
FaultInjector::applyWireFault(FrameData &fd, unsigned vf)
{
    Tenant &t = tenants[vf];
    if (!stormActive(vf))
        return false;

    // At most one fault class per frame, rolled in a fixed order so
    // per-class injected counts match the downstream drop counters
    // one for one.
    if (t.wireClock.roll(t.plan.wireCrcRate)) {
        fd.materialize();
        if (!fd.bytes.empty()) {
            std::size_t idx = t.wireClock.raw().below(fd.bytes.size());
            fd.bytes[idx] ^= static_cast<std::uint8_t>(
                1u << t.wireClock.raw().below(8));
        }
        fd.wireFault = WireFault::Crc;
        ++t.ctr.wireCrc;
        return true;
    }
    if (fd.size() > ethMinFrameBytes - ethCrcBytes &&
        t.wireClock.roll(t.plan.wireTruncateRate)) {
        // Cut the frame short but keep it >= the minimum legal length:
        // only the (modeled) CRC check can tell, not the length check.
        std::size_t lo = ethMinFrameBytes - ethCrcBytes;
        std::size_t new_len =
            t.wireClock.raw().range(lo, fd.size() - 1);
        fd.materialize();
        fd.bytes.resize(new_len);
        fd.wireFault = WireFault::Truncated;
        ++t.ctr.wireTrunc;
        return true;
    }
    if (t.wireClock.roll(t.plan.wireRuntRate)) {
        // Collision fragment: below the minimum legal frame length.
        std::size_t new_len = t.wireClock.raw().range(
            ethHeaderBytes, ethMinFrameBytes - ethCrcBytes - 1);
        fd.materialize();
        fd.bytes.resize(new_len);
        ++t.ctr.wireRunt;
        return true;
    }
    return false;
}

bool
FaultInjector::rollMemFault(unsigned vf)
{
    Tenant &t = tenants[vf];
    if (!stormActive(vf) || !t.memClock.roll(t.plan.memFaultRate))
        return false;
    ++t.ctr.memFaults;
    return true;
}

bool
FaultInjector::rollDoorbellDrop(unsigned vf)
{
    Tenant &t = tenants[vf];
    if (!stormActive(vf) ||
        !t.doorbellClock.roll(t.plan.doorbellDropRate))
        return false;
    ++t.ctr.doorbellLost;
    return true;
}

bool
FaultInjector::rollTxPoison(unsigned vf)
{
    Tenant &t = tenants[vf];
    if (!stormActive(vf) || !t.poisonClock.roll(t.plan.txPoisonRate))
        return false;
    ++t.ctr.txPoisoned;
    return true;
}

namespace {

/** Register one tenant's live counters under the standard names. */
void
registerCounterSet(obs::StatGroup &g, const FaultInjector::Counters &c)
{
    obs::StatGroup &w = g.group("wire");
    w.add("crc_injected", c.wireCrc,
          "frames corrupted (CRC-detectable)");
    w.add("trunc_injected", c.wireTrunc, "frames truncated on the wire");
    w.add("runt_injected", c.wireRunt, "frames shrunk below 60 B");

    obs::StatGroup &m = g.group("mem");
    m.add("faults_injected", c.memFaults,
          "transient DMA transfer errors");
    m.add("retries", c.memRetries, "transfers re-issued after a fault");
    m.add("drops", c.memDrops,
          "transfers abandoned after a failed retry");

    obs::StatGroup &d = g.group("doorbell");
    d.add("lost", c.doorbellLost, "doorbell notifications dropped");
    d.add("retries", c.doorbellRetries, "host timeout-driven re-rings");
    d.add("backoff_ticks", c.doorbellBackoffTicks,
          "extra delay accumulated by backed-off retry rearms");

    obs::StatGroup &p = g.group("poison");
    p.add("injected", c.txPoisoned, "tx frames marked poisoned");
    p.add("skips", c.poisonSkips, "poisoned frames skipped at commit");
}

} // namespace

void
FaultInjector::registerStats(obs::StatGroup &g) const
{
    if (tenants.size() == 1) {
        registerCounterSet(g, tenants[0].ctr);
        return;
    }
    // Multi-tenant: the shared fault tree shows per-class aggregates
    // under the legacy names; live per-tenant counters hang off the
    // vf.<id>.fault subtrees (registerTenantStats).
    auto agg = [this](const stats::Counter Counters::*m) {
        return [this, m] { return static_cast<double>(sum(m)); };
    };
    obs::StatGroup &w = g.group("wire");
    w.derived("crc_injected", agg(&Counters::wireCrc),
              "frames corrupted (CRC-detectable), all tenants");
    w.derived("trunc_injected", agg(&Counters::wireTrunc),
              "frames truncated on the wire, all tenants");
    w.derived("runt_injected", agg(&Counters::wireRunt),
              "frames shrunk below 60 B, all tenants");
    obs::StatGroup &m = g.group("mem");
    m.derived("faults_injected", agg(&Counters::memFaults),
              "transient DMA transfer errors, all tenants");
    m.derived("retries", agg(&Counters::memRetries),
              "transfers re-issued after a fault, all tenants");
    m.derived("drops", agg(&Counters::memDrops),
              "transfers abandoned after a failed retry, all tenants");
    obs::StatGroup &d = g.group("doorbell");
    d.derived("lost", agg(&Counters::doorbellLost),
              "doorbell notifications dropped, all tenants");
    d.derived("retries", agg(&Counters::doorbellRetries),
              "host timeout-driven re-rings, all tenants");
    d.derived("backoff_ticks", agg(&Counters::doorbellBackoffTicks),
              "extra backed-off retry delay, all tenants");
    obs::StatGroup &p = g.group("poison");
    p.derived("injected", agg(&Counters::txPoisoned),
              "tx frames marked poisoned, all tenants");
    p.derived("skips", agg(&Counters::poisonSkips),
              "poisoned frames skipped at commit, all tenants");
}

void
FaultInjector::registerTenantStats(obs::StatGroup &g, unsigned vf) const
{
    registerCounterSet(g, tenants[vf].ctr);
}

void
FaultInjector::resetStats()
{
    for (Tenant &t : tenants) {
        t.ctr.wireCrc.reset();
        t.ctr.wireTrunc.reset();
        t.ctr.wireRunt.reset();
        t.ctr.memFaults.reset();
        t.ctr.memRetries.reset();
        t.ctr.memDrops.reset();
        t.ctr.doorbellLost.reset();
        t.ctr.doorbellRetries.reset();
        t.ctr.doorbellBackoffTicks.reset();
        t.ctr.txPoisoned.reset();
        t.ctr.poisonSkips.reset();
    }
}

void
DoorbellRecovery::init(EventQueue &eq, FaultInjector *injector,
                       unsigned vf, EventQueue::Callback fn)
{
    faults = injector;
    tenant = vf;
    redeliver = std::move(fn);
    timer.init(eq, [this] { retry(); });
}

bool
DoorbellRecovery::ring()
{
    if (faults && faults->rollDoorbellDrop(tenant)) {
        if (!pending())
            timer.scheduleIn(FaultPlan::doorbellRetryTimeout);
        return false;
    }
    if (pending()) {
        backoff = 0;
        timer.cancel();
    }
    return true;
}

void
DoorbellRecovery::retry()
{
    faults->noteDoorbellRetry(tenant);
    if (faults->rollDoorbellDrop(tenant)) {
        if (backoff < FaultPlan::doorbellBackoffMax)
            ++backoff;
        Tick delay = FaultPlan::doorbellRetryTimeout << backoff;
        faults->noteDoorbellBackoff(
            delay - FaultPlan::doorbellRetryTimeout, tenant);
        timer.scheduleIn(delay);
        return;
    }
    backoff = 0;
    redeliver();
}

} // namespace tengig
