#include "fault/fabric.hh"

#include <algorithm>
#include <string>

#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace tengig {

void
FabricFaultPlan::validate() const
{
    fatal_if(nodeStallRate > 0.0 && nodeStallTicks == 0,
             "fabric node stalls need a nonzero duration");
    auto rate = [](double r) { return r >= 0.0 && r <= 1.0; };
    fatal_if(!rate(linkFlapRate) || !rate(corruptRate) ||
             !rate(dropRate) || !rate(ackDropRate) ||
             !rate(nodeStallRate),
             "fabric fault rates must be probabilities in [0, 1]");
}

FabricFaultInjector::FabricFaultInjector(const FabricFaultPlan &plan,
                                         unsigned ports)
    : _plan(plan)
{
    _plan.validate();
    fatal_if(ports == 0, "fabric fault injector needs at least one port");
    links.reserve(ports);
    stalls.reserve(ports);
    for (unsigned i = 0; i < ports; ++i) {
        links.emplace_back(_plan, i);
        stalls.emplace_back(_plan, i);
    }
}

void
FabricFaultInjector::extendFlaps(Link &l, Tick t)
{
    if (_plan.linkFlapRate <= 0.0)
        return;
    // One roll per epoch, in epoch order; a hit opens a down window at
    // a uniform offset with a uniform duration.  Windows are merged on
    // insert so `downWindows` stays disjoint and sorted, and the
    // stream consumption is a pure function of the generated horizon.
    std::uint64_t needed = t / _plan.flapEpochTicks + 1;
    while (l.epochsGenerated < needed) {
        Tick epochStart = l.epochsGenerated * _plan.flapEpochTicks;
        ++l.epochsGenerated;
        if (!l.flapClock.roll(_plan.linkFlapRate))
            continue;
        Tick start = epochStart +
            l.flapClock.raw().below(_plan.flapEpochTicks);
        Tick dur = l.flapClock.raw().range(_plan.flapMinTicks,
                                           _plan.flapMaxTicks);
        // Flaps obey the storm window like every other class.
        if (start < _plan.stormStart ||
            (_plan.stormEnd != 0 && start >= _plan.stormEnd))
            continue;
        Tick end = start + dur;
        if (_plan.stormEnd != 0)
            end = std::min(end, _plan.stormEnd);
        if (!l.downWindows.empty() && start <= l.downWindows.back().second)
            l.downWindows.back().second =
                std::max(l.downWindows.back().second, end);
        else
            l.downWindows.emplace_back(start, end);
    }
}

bool
FabricFaultInjector::linkDown(unsigned link, Tick t)
{
    Link &l = links[link];
    extendFlaps(l, t);
    auto it = std::upper_bound(
        l.downWindows.begin(), l.downWindows.end(), t,
        [](Tick v, const std::pair<Tick, Tick> &w) { return v < w.first; });
    return it != l.downWindows.begin() && t < std::prev(it)->second;
}

bool
FabricFaultInjector::rollDrop(unsigned link, Tick t)
{
    if (!stormActive(t))
        return false;
    if (!links[link].dropClock.roll(_plan.dropRate))
        return false;
    ++links[link].drops;
    return true;
}

bool
FabricFaultInjector::rollCorrupt(unsigned link, Tick t)
{
    if (!stormActive(t))
        return false;
    if (!links[link].corruptClock.roll(_plan.corruptRate))
        return false;
    ++links[link].corrupt;
    return true;
}

bool
FabricFaultInjector::rollAckDrop(unsigned link, Tick t)
{
    if (!stormActive(t))
        return false;
    return links[link].ackClock.roll(_plan.ackDropRate);
}

std::optional<std::pair<Tick, Tick>>
FabricFaultInjector::rollNodeStall(unsigned node, Tick now, Tick window)
{
    NodeStall &ns = stalls[node];
    if (!stormActive(now) || now < ns.stalledUntil || window == 0)
        return std::nullopt;
    if (!ns.clock.roll(_plan.nodeStallRate))
        return std::nullopt;
    Tick start = now + ns.clock.raw().below(window);
    Tick dur = _plan.nodeStallTicks;
    ns.stalledUntil = start + dur;
    ++stallEpisodes;
    stallTicks += dur;
    return std::make_pair(start, dur);
}

void
FabricFaultInjector::finalize(Tick horizon)
{
    for (Link &l : links) {
        extendFlaps(l, horizon);
        l.downTicks.reset();
        std::uint64_t total = 0;
        for (const auto &[start, end] : l.downWindows) {
            if (start >= horizon)
                break;
            total += std::min(end, horizon) - start;
        }
        l.downTicks += total;
    }
}

void
FabricFaultInjector::registerStats(obs::StatGroup &g)
{
    for (std::size_t i = 0; i < links.size(); ++i) {
        obs::StatGroup &lg = g.group("link" + std::to_string(i));
        lg.add("down_ticks", links[i].downTicks,
               "ticks this egress link spent in flap down windows");
        lg.add("degraded_windows", links[i].degradedWindows,
               "sync barriers at which this link was observed down");
        lg.add("down_kills", links[i].downKills,
               "frames lost to a down link");
        lg.add("drops", links[i].drops,
               "frames dropped mid-fabric (injected)");
        lg.add("corrupt", links[i].corrupt,
               "frames corrupted in transit (injected)");
        lg.add("ack_lost", links[i].ackLost,
               "reliable-delivery acks lost on this link");
    }
    obs::StatGroup &c = g.group("chaos");
    auto all = [this](const stats::Counter Link::*m) {
        return [this, m] { return static_cast<double>(sumLink(m)); };
    };
    c.derived("link_down_kills", all(&Link::downKills),
              "frames lost to down links, all links");
    c.derived("drops", all(&Link::drops),
              "frames dropped mid-fabric, all links");
    c.derived("corrupt", all(&Link::corrupt),
              "frames corrupted in transit, all links");
    c.derived("ack_lost", all(&Link::ackLost), "acks lost, all links");
    c.derived("link_down_ticks", all(&Link::downTicks),
              "ticks spent in flap down windows, summed over links");
    c.add("node_stall_episodes", stallEpisodes,
          "induced node-stall episodes (frozen firmware cores)");
    c.add("node_stall_ticks", stallTicks,
          "total ticks of induced core freeze across the fleet");
}

} // namespace tengig
