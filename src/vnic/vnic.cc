#include "vnic.hh"

#include <algorithm>
#include <cmath>

#include "firmware/fw_state.hh"
#include "obs/stat_registry.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace tengig {

namespace {

std::vector<double>
weightsOf(const VnicMux::Config &cfg)
{
    std::vector<double> w;
    w.reserve(cfg.vfs.size());
    for (const VfConfig &vf : cfg.vfs)
        w.push_back(vf.weight);
    return w;
}

/** Mean on-wire ticks per frame of a (validated) profile. */
double
profileMeanWire(const TrafficProfile &p)
{
    double total_w = 0.0;
    for (const FlowSpec &f : p.flows)
        total_w += f.weight;
    double mean = 0.0;
    for (const FlowSpec &f : p.flows)
        mean += f.weight / total_w * f.size.meanWireTicks();
    return mean;
}

} // namespace

VnicMux::VnicMux(EventQueue &eq_, const Config &cfg_,
                 FaultInjector *injector)
    : eq(eq_), cfg(cfg_), faults(injector),
      drr(weightsOf(cfg_), Config::drrQuantumBytes)
{
    fatal_if(cfg.vfs.empty(), "vnic mux with no virtual functions");
    fatal_if(faults && faults->tenantCount() != cfg.vfs.size(),
             "vnic fault injector has ", faults->tenantCount(),
             " tenants for ", cfg.vfs.size(), " virtual functions");

    txBases.push_back(0);
    rxBases.push_back(0);
    for (std::size_t i = 0; i < cfg.vfs.size(); ++i) {
        const VfConfig &vc = cfg.vfs[i];
        vc.validate();
        txBases.push_back(txBases.back() +
                          static_cast<std::uint32_t>(
                              vc.txTraffic.flows.size()));
        rxBases.push_back(rxBases.back() +
                          static_cast<std::uint32_t>(
                              vc.rxTraffic.flows.size()));

        auto f = std::make_unique<Vf>();
        if (vc.txTraffic.enabled())
            f->sched = std::make_unique<TxSchedule>(vc.txTraffic);
        f->admitBucket = TokenBucket(vc.txRateGbps, vc.burstBytes);
        f->commitBucket = TokenBucket(vc.txRateGbps, vc.burstBytes);
        f->rxBucket = TokenBucket(vc.rxRateGbps, vc.burstBytes);
        // A redelivered doorbell announces the lost batch and wakes
        // the posting boundary.
        f->doorbell.init(eq, faults, static_cast<unsigned>(i),
                         [this, vf = f.get()] {
                             vf->visible = vf->produced;
                             if (onTxEligible)
                                 onTxEligible();
                         });
        vfs.push_back(std::move(f));
    }
    fatal_if(txBases.back() > maxFlowId + 1 ||
             rxBases.back() > maxFlowId + 1,
             "vnic flow ranges exceed the integrity header's flow-id "
             "space");

    txSeqVf.assign(std::max(1u, cfg.sendRingFrames), 0);
    // Accepted rx frames wait in the firmware's SDRAM rx slots until
    // processed, so the attribution ring spans twice those, plus slack.
    rxSeqVf.assign(2 * FwConfig::rxSlots + 64, 0);

    refill.init(eq, [this] {
        if (onTxEligible)
            onTxEligible();
    });
}

bool
VnicMux::backlogged(unsigned vf) const
{
    const Vf &f = *vfs[vf];
    return f.sched && f.visible > f.served;
}

void
VnicMux::ensureProduced(unsigned vf)
{
    Vf &f = *vfs[vf];
    if (!f.sched || f.doorbell.pending() || f.visible > f.served)
        return;
    // The tenant is a backlogged sender: whenever the scheduler has
    // drained everything it announced, the next batch is already
    // written and needs only a doorbell.
    if (f.produced == f.served)
        f.produced += Config::txProduceBatch;
    ++f.dbRings;
    // A lost doorbell write leaves this tenant's batch invisible (the
    // VF is simply not backlogged) until its private retry timer
    // redelivers.  Other VFs are untouched.
    if (f.doorbell.ring())
        f.visible = f.produced;
}

void
VnicMux::armRefill(Tick when)
{
    if (refill.scheduled()) {
        if (when >= refillAt)
            return;
        refill.cancel();
    }
    refillAt = when;
    refill.scheduleAt(when);
}

std::optional<std::pair<std::uint32_t, unsigned>>
VnicMux::nextTxFrame(std::uint64_t seq)
{
    for (unsigned v = 0; v < vfs.size(); ++v)
        ensureProduced(v);

    Tick now = eq.curTick();
    auto prefetch = [this](unsigned v) -> Vf & {
        Vf &f = *vfs[v];
        if (!f.headValid) {
            auto [flow, bytes] = f.sched->frameSpec(f.schedIdx);
            ++f.schedIdx;
            f.headFlow = flow;
            f.headBytes = bytes;
            f.headValid = true;
        }
        return f;
    };

    int v = drr.pick(
        [this](unsigned i) { return backlogged(i); },
        [&](unsigned i) {
            Vf &f = prefetch(i);
            return f.admitBucket.eligible(now, f.headBytes);
        },
        [&](unsigned i) { return prefetch(i).headBytes; });

    if (v < 0) {
        // Nothing admissible now.  If anything is backlogged it is
        // rate-throttled: wake the driver at the earliest tick a head
        // frame's bucket is covered (work stays conserved -- an
        // unthrottled backlog never reaches here).
        bool any = false;
        Tick earliest = 0;
        for (unsigned i = 0; i < vfs.size(); ++i) {
            if (!backlogged(i))
                continue;
            Vf &f = prefetch(i);
            ++f.admitDefers;
            Tick at = f.admitBucket.eligibleAt(now, f.headBytes);
            if (!any || at < earliest)
                earliest = at;
            any = true;
        }
        if (any)
            armRefill(std::max(earliest, now + 1));
        return std::nullopt;
    }

    Vf &f = *vfs[v];
    f.admitBucket.tryConsume(now, f.headBytes);
    ++f.served;
    ++f.txPosted;
    f.headValid = false;
    txSeqVf[seq % txSeqVf.size()] = static_cast<unsigned>(v);
    return std::make_pair(txBases[v] + f.headFlow, f.headBytes);
}

bool
VnicMux::commitPeek(std::uint64_t seq, unsigned len_bytes) const
{
    const Vf &f = *vfs[txVfOf(seq)];
    unsigned payload =
        len_bytes > txHeaderBytes ? len_bytes - txHeaderBytes : 0;
    return f.commitBucket.eligible(eq.curTick(), payload);
}

bool
VnicMux::commitAdmit(std::uint64_t seq, unsigned len_bytes)
{
    Vf &f = *vfs[txVfOf(seq)];
    unsigned payload =
        len_bytes > txHeaderBytes ? len_bytes - txHeaderBytes : 0;
    if (f.commitBucket.tryConsume(eq.curTick(), payload))
        return true;
    ++f.commitStalls;
    return false;
}

TrafficProfile
VnicMux::mergedRxProfile(const std::vector<VfConfig> &vfs)
{
    // One serialized wire carries every tenant's arrivals.  Setting a
    // merged flow's weight to its solo frame rate (vf rate / vf mean
    // wire time * flow share) makes the merged engine reproduce each
    // flow's solo rate exactly: the engine normalizes weights by the
    // weighted mean wire time, and with these weights that denominator
    // telescopes to the summed offered rate.
    TrafficProfile merged;
    merged.offeredRate = 0.0;
    std::uint64_t seed = 0x76f5a11cULL;
    std::size_t idx = 0;
    for (const VfConfig &vc : vfs) {
        ++idx;
        if (!vc.rxTraffic.enabled())
            continue;
        const TrafficProfile &p = vc.rxTraffic;
        double total_w = 0.0;
        for (const FlowSpec &fs : p.flows)
            total_w += fs.weight;
        double mean_wire = profileMeanWire(p);
        for (const FlowSpec &fs : p.flows) {
            FlowSpec m = fs;
            m.weight =
                p.offeredRate / mean_wire * (fs.weight / total_w);
            merged.flows.push_back(m);
        }
        merged.offeredRate += p.offeredRate;
        std::uint64_t mix = seed ^ (p.seed + idx);
        seed = splitmix64(mix);
    }
    merged.seed = seed;
    return merged;
}

unsigned
VnicMux::rxVfOfFlow(std::uint32_t flow) const
{
    auto it = std::upper_bound(rxBases.begin(), rxBases.end(), flow);
    return static_cast<unsigned>(it - rxBases.begin()) - 1;
}

unsigned
VnicMux::txVfOfFlow(std::uint32_t flow) const
{
    auto it = std::upper_bound(txBases.begin(), txBases.end(), flow);
    return static_cast<unsigned>(it - txBases.begin()) - 1;
}

bool
VnicMux::rxAdmit(unsigned vf, unsigned payload_bytes)
{
    Vf &f = *vfs[vf];
    if (f.rxBucket.tryConsume(eq.curTick(), payload_bytes))
        return true;
    ++f.rxPoliced;
    return false;
}

void
VnicMux::noteRxAccepted(unsigned vf)
{
    rxSeqVf[rxAcceptCount % rxSeqVf.size()] = vf;
    ++rxAcceptCount;
    ++vfs[vf]->rxAccepted;
}

void
VnicMux::noteTxDelivered(const FrameView &v)
{
    std::uint32_t seq = 0, flow = 0;
    if (!peekFrameView(v, seq, flow))
        return;
    Vf &f = *vfs[txVfOfFlow(flow)];
    ++f.txFrames;
    f.txPayload += v.len > txHeaderBytes ? v.len - txHeaderBytes : 0;
}

void
VnicMux::noteRxDelivered(const FrameView &v)
{
    std::uint32_t seq = 0, flow = 0;
    if (!peekFrameView(v, seq, flow))
        return;
    Vf &f = *vfs[rxVfOfFlow(flow)];
    ++f.rxFrames;
    f.rxPayload += v.len > txHeaderBytes ? v.len - txHeaderBytes : 0;
}

void
VnicMux::registerStats(obs::StatGroup &g) const
{
    for (std::size_t i = 0; i < vfs.size(); ++i) {
        const VfConfig &vc = cfg.vfs[i];
        std::string name =
            vc.name.empty() ? "vf" + std::to_string(i) : vc.name;
        obs::StatGroup &t = g.group(name);
        t.derived("weight", [w = vc.weight] { return w; },
                  "DRR share of contended transmit capacity");

        obs::StatGroup &tx = t.group("tx");
        tx.add("posted", vfs[i]->txPosted,
               "frames this VF won at the posting arbiter");
        tx.add("frames", vfs[i]->txFrames,
               "frames delivered on the wire");
        tx.add("payloadBytes", vfs[i]->txPayload,
               "UDP payload bytes delivered on the wire");
        tx.add("admit_defers", vfs[i]->admitDefers,
               "posting passes skipped on a dry admission bucket");
        tx.add("commit_stalls", vfs[i]->commitStalls,
               "MAC-commit polls refused by the enforcement bucket");

        obs::StatGroup &rx = t.group("rx");
        rx.add("accepted", vfs[i]->rxAccepted,
               "arrivals the MAC accepted for this VF");
        rx.add("frames", vfs[i]->rxFrames,
               "frames delivered to this VF's host rings");
        rx.add("payloadBytes", vfs[i]->rxPayload,
               "UDP payload bytes delivered to the host");
        rx.add("policed", vfs[i]->rxPoliced,
               "arrivals dropped by this VF's ingress policer");

        t.group("doorbell").add(
            "rings", vfs[i]->dbRings,
            "virtual send-doorbell rings attempted");

        if (faults)
            faults->registerTenantStats(t.group("fault"),
                                        static_cast<unsigned>(i));
    }
}

} // namespace tengig
