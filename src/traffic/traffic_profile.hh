/**
 * @file
 * Declarative description of a multi-flow workload.
 *
 * A TrafficProfile is a set of FlowSpecs: each flow draws per-frame
 * UDP payload sizes from a SizeModel (fixed, bimodal request/response,
 * or an empirical mix like the classic IMIX) and spaces departures
 * with an ArrivalModel (deterministic pacing, Poisson, or on/off
 * bursts).  Flow weights divide the aggregate frame rate; the
 * aggregate offered load is a fraction of 10 Gb/s line rate measured
 * in wire time, so a profile at rate 1.0 saturates the link exactly
 * like the paper's fixed-size workloads.
 *
 * Profiles are pure data plus a seed: the TrafficEngine and TxSchedule
 * (flow.hh, traffic_engine.hh) turn one into a deterministic frame
 * schedule, so the same profile + seed always produces bit-identical
 * traffic.
 */

#ifndef TENGIG_TRAFFIC_TRAFFIC_PROFILE_HH
#define TENGIG_TRAFFIC_TRAFFIC_PROFILE_HH

#include <cstdint>
#include <vector>

#include "net/frame.hh"

namespace tengig {

/** How one flow chooses per-frame UDP payload sizes. */
struct SizeModel
{
    enum class Kind { Fixed, Bimodal, Empirical };

    Kind kind = Kind::Fixed;

    /// @name Fixed
    /// @{
    unsigned fixedBytes = udpMaxPayloadBytes;
    /// @}

    /// @name Bimodal (request/response)
    /// @{
    unsigned smallBytes = 90;
    unsigned largeBytes = udpMaxPayloadBytes;
    double smallFraction = 0.5; //!< fraction of frames that are small
    /// @}

    /// @name Empirical mix
    /// @{
    struct Point
    {
        unsigned payloadBytes;
        double weight;
    };
    std::vector<Point> mix;
    /// @}

    static SizeModel fixed(unsigned payload_bytes);
    static SizeModel bimodal(unsigned small, unsigned large,
                             double small_fraction);

    /** Classic IMIX: 7:4:1 frames at 64/594/1518 B on the wire. */
    static SizeModel imix();

    /** Mean on-wire ticks per frame under this model. */
    double meanWireTicks() const;

    /** Mean UDP payload bytes per frame under this model. */
    double meanPayloadBytes() const;

    void validate() const;
};

/** How one flow spaces frame departures in time. */
struct ArrivalModel
{
    enum class Kind { Paced, Poisson, OnOff };

    Kind kind = Kind::Paced;

    /// @name On/off bursts
    /// @{
    /** Fraction of time spent inside bursts: within a burst frames
     *  depart at mean-gap * burstDuty, i.e. 1/burstDuty times the
     *  long-run rate. */
    double burstDuty = 0.25;
    double meanBurstFrames = 32.0; //!< geometric mean burst length
    /// @}

    static ArrivalModel paced();
    static ArrivalModel poisson();
    static ArrivalModel onOff(double duty, double mean_burst_frames);

    void validate() const;
};

/** One flow: a size model, an arrival process, and a rate share. */
struct FlowSpec
{
    SizeModel size;
    ArrivalModel arrival;
    double weight = 1.0; //!< share of the aggregate frame rate
};

/**
 * A complete multi-flow workload description.
 */
struct TrafficProfile
{
    std::vector<FlowSpec> flows;
    double offeredRate = 1.0; //!< aggregate load, fraction of line rate
    std::uint64_t seed = 0x1005e7a91ULL;

    /**
     * First global flow id this profile's flows occupy: flow i of the
     * profile is tagged flowIdBase + i in every frame's integrity
     * header.  Multi-NIC (fleet) runs give each instance a disjoint
     * range so frames forwarded across the switch never collide with
     * the destination's own flows; 0 (the default) reproduces the
     * historical single-NIC numbering exactly.
     */
    std::uint32_t flowIdBase = 0;

    /** An empty profile offers no traffic. */
    bool enabled() const { return !flows.empty(); }

    void validate() const;

    /** The paper's stream, NicConfig's default each way: one fixed-size
     *  paced flow (flow 0) at line rate with the default seed.  Figure 8
     *  sweeps its datagram size. */
    static TrafficProfile paper(unsigned payload_bytes = udpMaxPayloadBytes);

    /** @p nflows identical flows. */
    static TrafficProfile uniform(unsigned nflows, const SizeModel &size,
                                  const ArrivalModel &arrival, double rate,
                                  std::uint64_t seed);

    /** Every flow a bimodal request/response mix. */
    static TrafficProfile bimodalRequestResponse(
        unsigned nflows, unsigned request_bytes, unsigned response_bytes,
        double request_fraction, double rate, std::uint64_t seed);

    /** IMIX sizes with Poisson arrivals on every flow. */
    static TrafficProfile imixPoisson(unsigned nflows, double rate,
                                      std::uint64_t seed);
};

} // namespace tengig

#endif // TENGIG_TRAFFIC_TRAFFIC_PROFILE_HH
