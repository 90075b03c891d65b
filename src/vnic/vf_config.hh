/**
 * @file
 * Per-tenant virtual-function configuration (src/vnic).
 *
 * A VfConfig describes one SR-IOV-style virtual function multiplexed
 * over the shared datapath: its own traffic profiles (flow set), a
 * weighted-fair share for the contended transmit direction, optional
 * token-bucket rate contracts in both directions, and a private fault
 * plan whose seeded streams are confined to this tenant.
 *
 * NicConfig carries a list of these; an empty list means the legacy
 * single-function NIC, with every vnic hook structurally absent and
 * runs bit-identical to a build without the subsystem.
 */

#ifndef TENGIG_VNIC_VF_CONFIG_HH
#define TENGIG_VNIC_VF_CONFIG_HH

#include <string>
#include <vector>

#include "fault/fault.hh"
#include "sim/logging.hh"
#include "traffic/traffic_profile.hh"

namespace tengig {

/** One virtual function (one tenant). */
struct VfConfig
{
    /** Display name for reports; defaults to "vf<index>". */
    std::string name;

    /**
     * DRR weight: this VF's share of transmit capacity whenever the
     * shared datapath is contended.  Weights are relative; an
     * uncontended VF may exceed its share (work conservation).
     */
    double weight = 1.0;

    /// @name Token-bucket rate contracts (0 = uncontracted)
    /// @{
    double txRateGbps = 0.0; //!< transmit UDP-payload ceiling
    double rxRateGbps = 0.0; //!< receive ingress policer ceiling
    unsigned burstBytes = 64 * 1024; //!< bucket depth for both
    /// @}

    /**
     * Transmit workload: the flows this tenant posts whenever the
     * driver's send ring has room (the tenant always has a frame to
     * send).  Flow ids are VF-local; the mux offsets
     * them into one global id space so the shared wire-side validator
     * keeps per-flow ordering checks.
     */
    TrafficProfile txTraffic;

    /** Receive workload; offeredRate is this VF's fraction of line
     *  rate (VF profiles merge into one serialized wire). */
    TrafficProfile rxTraffic;

    /**
     * Tenant-private fault plan.  Every injection site this tenant's
     * frames cross rolls against streams derived from (plan seed,
     * site, vf), so a storm here cannot perturb -- or even consume
     * randomness from -- another tenant's fault streams.
     */
    FaultPlan faults;

    void
    validate() const
    {
        fatal_if(weight <= 0.0, "vf weight must be positive, got ",
                 weight);
        fatal_if(txRateGbps < 0.0 || rxRateGbps < 0.0,
                 "vf rate contracts must be >= 0");
        fatal_if(burstBytes == 0, "vf burstBytes must be nonzero");
        fatal_if(!txTraffic.enabled() && !rxTraffic.enabled(),
                 "vf needs a tx or rx traffic profile");
        fatal_if(txTraffic.flowIdBase != 0 || rxTraffic.flowIdBase != 0,
                 "vf profiles use mux-assigned flow ranges; "
                 "flowIdBase must stay 0");
        try {
            if (txTraffic.enabled())
                txTraffic.validate();
        } catch (const FatalError &e) {
            fatalWithContext(e, "txTraffic");
        }
        try {
            if (rxTraffic.enabled())
                rxTraffic.validate();
        } catch (const FatalError &e) {
            fatalWithContext(e, "rxTraffic");
        }
    }
};

} // namespace tengig

#endif // TENGIG_VNIC_VF_CONFIG_HH
