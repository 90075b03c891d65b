#include "fleet/reliable.hh"

#include <algorithm>

#include "nic/controller.hh"
#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace tengig {

const char *
fabricFaultClassName(FabricFaultClass c)
{
    switch (c) {
      case FabricFaultClass::LinkDown: return "link_down";
      case FabricFaultClass::Drop: return "drop";
      case FabricFaultClass::Corrupt: return "corrupt";
      case FabricFaultClass::EgressFull: return "egress_full";
      case FabricFaultClass::AckLost: return "ack_lost";
    }
    return "?";
}

ReliableSender::ReliableSender(Tick rto) : rto(rto)
{
    fatal_if(rto == 0, "reliable retransmit timeout must be nonzero");
}

std::uint64_t
ReliableSender::track(unsigned src, unsigned dst, Tick sent,
                      const FrameData &frame)
{
    std::uint64_t id = nextId++;
    Record rec;
    rec.frame = frame;
    rec.src = src;
    rec.dst = dst;
    std::uint32_t seq = ~0u;
    std::uint32_t flow = ~0u;
    peekFrameView(frame.view(), seq, flow);
    rec.key = (static_cast<std::uint64_t>(flow) << 32) | seq;
    rec.firstSent = sent;
    rec.deadline = sent + rto;
    pending.emplace(id, std::move(rec));
    return id;
}

void
ReliableSender::owe(std::uint64_t id, FabricFaultClass cls)
{
    Record &rec = pending.at(id);
    fatal_if(rec.owed.has_value(), "reliable record ", id,
             " owes two fault classes at once (",
             fabricFaultClassName(*rec.owed), " then ",
             fabricFaultClassName(cls), "): each attempt resolves to "
             "exactly one outcome");
    rec.owed = cls;
    rec.ackPending = false;
}

void
ReliableSender::ackInFlight(std::uint64_t id, Tick ack_arrival)
{
    Record &rec = pending.at(id);
    fatal_if(rec.owed.has_value(), "reliable record ", id,
             " acked while owing ", fabricFaultClassName(*rec.owed));
    rec.ackPending = true;
    acksInFlight.emplace_back(ack_arrival, id);
}

void
ReliableSender::processAcks(Tick now)
{
    // Arrival order is irrelevant to the result (each ack names its own
    // record); a stable partition keeps the pass deterministic anyway.
    auto due = std::stable_partition(
        acksInFlight.begin(), acksInFlight.end(),
        [now](const auto &a) { return a.first > now; });
    for (auto it = due; it != acksInFlight.end(); ++it) {
        auto rec = pending.find(it->second);
        fatal_if(rec == pending.end(), "reliable ack for retired record ",
                 it->second);
        fatal_if(!rec->second.ackPending, "reliable ack for record ",
                 it->second, " that was not awaiting one");
        pending.erase(rec);
        ++acked;
    }
    acksInFlight.erase(due, acksInFlight.end());
}

std::vector<std::uint64_t>
ReliableSender::collectTimeouts(Tick now)
{
    std::vector<std::uint64_t> out;
    std::map<unsigned, unsigned> perDst;
    for (auto &[id, rec] : pending) {
        if (rec.deadline > now)
            continue;
        // Per-destination retransmission window: losses cluster (one
        // flap window kills a whole burst sharing one deadline), so
        // uncapped retransmission would slam the egress FIFO with a
        // synchronized burst that mostly bounces as EgressFull.
        // Deferred records keep their expired deadline and go out at
        // the next barrier, oldest first.
        if (perDst[rec.dst] >= ReliableDeliveryConfig::retransmitWindow)
            continue;
        ++perDst[rec.dst];
        // An expired deadline on a frame whose attempt is still
        // unresolved means the timeout undercuts the worst-case RTT --
        // the configuration validator is supposed to make this
        // impossible, so reaching it is a protocol bug, not chaos.
        fatal_if(rec.ackPending, "reliable record ", id, " (key ",
                 rec.key, ") timed out at ", now,
                 " with its ack still in flight: retransmit timeout "
                 "below the worst-case RTT");
        fatal_if(!rec.owed.has_value(), "reliable record ", id, " (key ",
                 rec.key, ") timed out at ", now,
                 " owing no fault: spurious retransmission");
        ++recoveredCtr[static_cast<unsigned>(*rec.owed)];
        rec.owed.reset();
        ++retransmits;
        if (rec.backoff < ReliableDeliveryConfig::backoffMax)
            ++rec.backoff;
        Tick delay = rto << rec.backoff;
        backoffTicks += delay - rto;
        rec.deadline = now + delay;
        out.push_back(id);
    }
    return out;
}

std::uint64_t
ReliableSender::pendingOlderThan(Tick t) const
{
    std::uint64_t n = 0;
    for (const auto &[id, rec] : pending)
        if (rec.firstSent < t)
            ++n;
    return n;
}

std::uint64_t
ReliableSender::owedOutstanding(FabricFaultClass c) const
{
    std::uint64_t n = 0;
    for (const auto &[id, rec] : pending)
        if (rec.owed == c)
            ++n;
    return n;
}

std::uint64_t
ReliableSender::owedOutstandingTotal() const
{
    std::uint64_t n = 0;
    for (const auto &[id, rec] : pending)
        if (rec.owed.has_value())
            ++n;
    return n;
}

void
ReliableSender::registerStats(obs::StatGroup &g)
{
    g.add("acked", acked, "cross-node frames delivered and acknowledged");
    g.add("retransmits", retransmits,
          "retransmissions taken after fabric faults");
    g.add("backoff_ticks", backoffTicks,
          "extra retransmit delay beyond the base timeout");
    g.derived("pending",
              [this] { return static_cast<double>(pending.size()); },
              "tracked frames still awaiting acknowledgement");
    obs::StatGroup &rg = g.group("recovered");
    for (unsigned c = 0; c < fabricFaultClassCount; ++c)
        rg.add(fabricFaultClassName(static_cast<FabricFaultClass>(c)),
               recoveredCtr[c],
               "losses of this fault class repaid by retransmission");
}

ReliableReceiver::ReliableReceiver(NicController &nic) : nic(nic) {}

void
ReliableReceiver::receive(FrameData &&fd, bool corrupted)
{
    if (corrupted) {
        // The link port's CRC check: damaged frames die here, before
        // the MAC, so the destination's own stat tree never learns the
        // fabric was faulty.  The sender's timeout recovers the frame.
        ++corrupt;
        return;
    }
    std::uint32_t seq = ~0u;
    std::uint32_t flow = ~0u;
    fatal_if(!peekFrameView(fd.view(), seq, flow),
             "reliable receiver got a frame without an integrity "
             "header (only flow-tagged fleet traffic is supported)");
    FlowState &fs = flows[flow];
    if (seq < fs.next || fs.parked.count(seq)) {
        // Already injected or already buffered: a retransmission whose
        // original survived (its ack was lost, or it raced the
        // timeout).  Exactly one copy ever reaches the NIC.
        ++dups;
        return;
    }
    fs.parked.emplace(seq, std::move(fd));
    // While a refusal retry is armed the NIC is known-backpressured;
    // let the retry do the next injection attempt so every refusal
    // pairs with exactly one retry.
    if (!fs.retryScheduled)
        drainFlow(flow, fs);
}

void
ReliableReceiver::drainFlow(std::uint32_t flow_id, FlowState &fs)
{
    // Inject the in-order prefix.  The per-flow validators treat any
    // duplicate or regression as an error, so frames enter the NIC in
    // exact sequence order; a gap simply parks until the retransmission
    // arrives.
    while (true) {
        auto it = fs.parked.find(fs.next);
        if (it == fs.parked.end())
            return;
        if (!nic.injectWireFrame(FrameData(it->second))) {
            // MAC refusal (e.g. receive buffers full mid node-stall):
            // backpressure, not loss.  The frame stays parked; one
            // retry event per refusal re-attempts the drain, so at
            // drain time retries == refusals exactly.
            ++refusals;
            if (!fs.retryScheduled) {
                fs.retryScheduled = true;
                nic.eventQueue().scheduleIn(
                    ReliableDeliveryConfig::rxRetryTicks,
                    [this, flow_id] {
                        FlowState &s = flows.at(flow_id);
                        s.retryScheduled = false;
                        ++retries;
                        drainFlow(flow_id, s);
                    });
            }
            return;
        }
        ++delivered;
        fs.parked.erase(it);
        ++fs.next;
    }
}

std::uint64_t
ReliableReceiver::buffered() const
{
    std::uint64_t n = 0;
    for (const auto &[flow, fs] : flows)
        n += fs.parked.size();
    return n;
}

} // namespace tengig
