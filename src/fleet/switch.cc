#include "fleet/switch.hh"

#include <cmath>

#include "net/frame.hh"
#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace tengig {

void
SwitchModelConfig::validate() const
{
    fatal_if(fabricLatencyTicks == 0, "switch fabric latency must be "
             "nonzero (and >= the fleet sync window)");
    fatal_if(egressGbps <= 0.0, "switch egress rate must be positive, "
             "got ", egressGbps);
}

FleetSwitch::FleetSwitch(const SwitchModelConfig &cfg, unsigned n_ports)
    : cfg(cfg),
      egressByteTicks(cfg.egressByteTicks()),
      ports(n_ports)
{
    cfg.validate();
    fatal_if(n_ports < 2, "a fleet switch needs at least 2 ports, got ",
             n_ports);
    fatal_if(egressByteTicks == 0, "switch egress rate ", cfg.egressGbps,
             " Gb/s is too fast for the tick resolution");
}

std::optional<Tick>
FleetSwitch::forward(unsigned src_port, unsigned dst_port, Tick sent_tick,
                     unsigned frame_bytes)
{
    fatal_if(src_port >= ports.size() || dst_port >= ports.size(),
             "switch port out of range: ", src_port, " -> ", dst_port,
             " with ", ports.size(), " ports");
    fatal_if(sent_tick < lastSent, "switch offered frames out of order: ",
             sent_tick, " after ", lastSent,
             " (coordinator must sort captures)");
    lastSent = sent_tick;

    Port &out = ports[dst_port];

    // The frame's head reaches the egress queue after the fabric
    // latency; frames that departed the wire by then free their slots.
    Tick enq = sent_tick + cfg.fabricLatencyTicks;
    while (out.head < out.departures.size() &&
           out.departures[out.head] <= enq)
        ++out.head;
    if (out.head == out.departures.size()) {
        out.departures.clear();
        out.head = 0;
    }

    std::size_t occupancy = out.departures.size() - out.head;
    if (cfg.egressQueueFrames && occupancy >= cfg.egressQueueFrames) {
        ++dropped;
        ++out.drops;
        return std::nullopt;
    }

    // Serialize onto the egress wire: preamble + frame + IFG byte
    // times at the egress rate, after the wire frees.
    Tick start = enq > out.busyUntil ? enq : out.busyUntil;
    Tick depart = start +
        static_cast<Tick>(wireBytesForFrame(frame_bytes)) * egressByteTicks;
    out.busyUntil = depart;
    out.departures.push_back(depart);

    ++forwarded;
    ++out.framesOut;
    fwdBytes += frame_bytes;
    latHist.sample(depart - sent_tick);
    (void)src_port;
    return depart;
}

std::uint64_t
FleetSwitch::portFramesOut(unsigned dst_port) const
{
    fatal_if(dst_port >= ports.size(), "switch port out of range: ",
             dst_port);
    return ports[dst_port].framesOut.value();
}

void
FleetSwitch::registerStats(obs::StatGroup &g)
{
    g.add("forwarded", forwarded, "frames moved through the fabric");
    g.add("dropped", dropped, "frames dropped at full egress FIFOs");
    g.add("forwardedBytes", fwdBytes, "on-wire bytes forwarded");
    g.add("latencyTicks", latHist,
          "switch transit latency (send -> destination arrival)");
    for (std::size_t p = 0; p < ports.size(); ++p) {
        g.group("port" + std::to_string(p))
            .add("framesOut", ports[p].framesOut,
                 "frames sent out this egress port");
        // Drop-on-full must feed the delivery ledger, not vanish: the
        // fleet runner folds these into its loss accounting and the
        // benches fail loudly on any unaccounted frame.
        g.group("egress" + std::to_string(p))
            .add("drops", ports[p].drops,
                 "frames dropped at this port's full egress FIFO");
    }
}

} // namespace tengig
