#include "traffic_profile.hh"

#include "sim/logging.hh"

namespace tengig {

namespace {

/** Smallest payload the integrity header + validators accept. */
constexpr unsigned minPayloadBytes = 18;

void
validatePayloadSize(unsigned bytes)
{
    fatal_if(bytes < minPayloadBytes || bytes > udpMaxPayloadBytes,
             "payload size must be in [", minPayloadBytes, ", ",
             udpMaxPayloadBytes, "], got ", bytes);
}

} // namespace

SizeModel
SizeModel::fixed(unsigned payload_bytes)
{
    SizeModel m;
    m.kind = Kind::Fixed;
    m.fixedBytes = payload_bytes;
    return m;
}

SizeModel
SizeModel::bimodal(unsigned small, unsigned large, double small_fraction)
{
    SizeModel m;
    m.kind = Kind::Bimodal;
    m.smallBytes = small;
    m.largeBytes = large;
    m.smallFraction = small_fraction;
    return m;
}

SizeModel
SizeModel::imix()
{
    // 64/594/1518-byte wire frames at 7:4:1; payloads are wire size
    // minus the 46 bytes of framing overhead.
    SizeModel m;
    m.kind = Kind::Empirical;
    m.mix = {{ethMinFrameBytes - framingOverheadBytes, 7.0},
             {594 - framingOverheadBytes, 4.0},
             {ethMaxFrameBytes - framingOverheadBytes, 1.0}};
    return m;
}

double
SizeModel::meanWireTicks() const
{
    switch (kind) {
      case Kind::Fixed:
        return static_cast<double>(
            wireTimeForFrame(frameBytesForPayload(fixedBytes)));
      case Kind::Bimodal:
        return smallFraction *
                   wireTimeForFrame(frameBytesForPayload(smallBytes)) +
               (1.0 - smallFraction) *
                   wireTimeForFrame(frameBytesForPayload(largeBytes));
      case Kind::Empirical: {
        double total = 0, acc = 0;
        for (const Point &p : mix) {
            total += p.weight;
            acc += p.weight *
                   wireTimeForFrame(frameBytesForPayload(p.payloadBytes));
        }
        return total > 0 ? acc / total : 0.0;
      }
    }
    return 0.0;
}

double
SizeModel::meanPayloadBytes() const
{
    switch (kind) {
      case Kind::Fixed:
        return fixedBytes;
      case Kind::Bimodal:
        return smallFraction * smallBytes +
               (1.0 - smallFraction) * largeBytes;
      case Kind::Empirical: {
        double total = 0, acc = 0;
        for (const Point &p : mix) {
            total += p.weight;
            acc += p.weight * p.payloadBytes;
        }
        return total > 0 ? acc / total : 0.0;
      }
    }
    return 0.0;
}

void
SizeModel::validate() const
{
    switch (kind) {
      case Kind::Fixed:
        validatePayloadSize(fixedBytes);
        break;
      case Kind::Bimodal:
        validatePayloadSize(smallBytes);
        validatePayloadSize(largeBytes);
        fatal_if(smallFraction < 0.0 || smallFraction > 1.0,
                 "smallFraction must be in [0, 1], got ", smallFraction);
        break;
      case Kind::Empirical: {
        fatal_if(mix.empty(), "empirical size model with no points");
        double total = 0;
        for (const Point &p : mix) {
            validatePayloadSize(p.payloadBytes);
            fatal_if(p.weight < 0.0, "negative size-mix weight");
            total += p.weight;
        }
        fatal_if(total <= 0.0, "empirical size model with zero weight");
        break;
      }
    }
}

ArrivalModel
ArrivalModel::paced()
{
    return ArrivalModel{};
}

ArrivalModel
ArrivalModel::poisson()
{
    ArrivalModel m;
    m.kind = Kind::Poisson;
    return m;
}

ArrivalModel
ArrivalModel::onOff(double duty, double mean_burst_frames)
{
    ArrivalModel m;
    m.kind = Kind::OnOff;
    m.burstDuty = duty;
    m.meanBurstFrames = mean_burst_frames;
    return m;
}

void
ArrivalModel::validate() const
{
    if (kind != Kind::OnOff)
        return;
    fatal_if(burstDuty <= 0.0 || burstDuty > 1.0,
             "burstDuty must be in (0, 1], got ", burstDuty);
    fatal_if(meanBurstFrames < 1.0,
             "meanBurstFrames must be >= 1, got ", meanBurstFrames);
}

void
TrafficProfile::validate() const
{
    fatal_if(flows.empty(), "traffic profile with no flows");
    fatal_if(flows.size() > maxFlowId + 1,
             "too many flows for 16-bit flow ids: ", flows.size());
    fatal_if(flowIdBase + flows.size() > maxFlowId + 1,
             "flow id range [", flowIdBase, ", ",
             flowIdBase + flows.size(),
             ") exceeds the 16-bit flow id space");
    // Written so that NaN fails too.
    fatal_if(!(offeredRate > 0.0 && offeredRate <= 1.0),
             "offered rate must be in (0, 1], got ", offeredRate);
    double total = 0;
    for (const FlowSpec &f : flows) {
        f.size.validate();
        f.arrival.validate();
        fatal_if(f.weight < 0.0, "negative flow weight");
        total += f.weight;
    }
    fatal_if(total <= 0.0, "traffic profile with zero total weight");
}

TrafficProfile
TrafficProfile::paper(unsigned payload_bytes)
{
    return uniform(1, SizeModel::fixed(payload_bytes), ArrivalModel::paced(),
                   1.0, TrafficProfile{}.seed);
}

TrafficProfile
TrafficProfile::uniform(unsigned nflows, const SizeModel &size,
                        const ArrivalModel &arrival, double rate,
                        std::uint64_t seed)
{
    fatal_if(nflows == 0, "uniform profile needs at least one flow");
    TrafficProfile p;
    p.flows.assign(nflows, FlowSpec{size, arrival, 1.0});
    p.offeredRate = rate;
    p.seed = seed;
    return p;
}

TrafficProfile
TrafficProfile::bimodalRequestResponse(unsigned nflows,
                                       unsigned request_bytes,
                                       unsigned response_bytes,
                                       double request_fraction,
                                       double rate, std::uint64_t seed)
{
    return uniform(nflows,
                   SizeModel::bimodal(request_bytes, response_bytes,
                                      request_fraction),
                   ArrivalModel::paced(), rate, seed);
}

TrafficProfile
TrafficProfile::imixPoisson(unsigned nflows, double rate,
                            std::uint64_t seed)
{
    return uniform(nflows, SizeModel::imix(), ArrivalModel::poisson(),
                   rate, seed);
}

} // namespace tengig
