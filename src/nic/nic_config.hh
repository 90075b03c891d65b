/**
 * @file
 * Top-level NIC configuration.
 *
 * The settable fields are what the paper's experiments vary (Figs. 7/8,
 * Tables 3-6) -- core count and clock, scratchpad banks, firmware
 * organization and frame ordering, and the traffic profiles that set
 * the frame size -- plus the fault and virtualization settings of the
 * extensions.  The
 * rest of the Fig. 6 design is fixed and named here as constants: a
 * 256 KB scratchpad, 8 KB 2-way I-caches with 32 B lines, a 500 MHz
 * bus to an 8 MB GDDR SDRAM, 64-entry DMA and MAC transmit FIFOs and
 * a 1024-buffer receive pool.  validate() checks the settable ones.
 */

#ifndef TENGIG_NIC_NIC_CONFIG_HH
#define TENGIG_NIC_NIC_CONFIG_HH

#include <vector>

#include "fault/fault.hh"
#include "firmware/fw_state.hh"
#include "mem/sdram.hh"
#include "net/frame.hh"
#include "traffic/traffic_profile.hh"
#include "vnic/vf_config.hh"

namespace tengig {

struct NicConfig
{
    /// @name Computation and memory architecture (Fig. 6)
    /// @{
    unsigned cores = 6;
    double cpuMhz = 200.0;          //!< cores + scratchpad + crossbar
    unsigned scratchpadBanks = 4;
    /// @}

    /// @name Fixed architecture (Fig. 6; no experiment varies these)
    /// @{
    static constexpr std::size_t scratchpadBytes = 256 * 1024;
    static constexpr std::size_t icacheBytes = 8 * 1024;
    static constexpr unsigned icacheAssoc = 2;
    static constexpr unsigned icacheLineBytes = 32;
    static constexpr double memBusMhz = 500.0; //!< internal bus + GDDR
    static constexpr std::size_t sdramBytes = GddrSdram::capacityBytes;
    static constexpr unsigned dmaFifoDepth = 64;
    static constexpr unsigned macTxFifoDepth = 64;
    /// @}

    // SDRAM frame-buffer layout: transmit slots, then receive slots.
    static_assert((FwConfig::txSlots + FwConfig::rxSlots) *
                      static_cast<std::size_t>(FwConfig::slotBytes) <=
                  sdramBytes,
                  "sdram too small for the frame slots");

    /// @name Firmware organization
    /// @{
    FwConfig firmware;
    bool taskLevelFirmware = false; //!< event-register baseline
    /// @}

    /**
     * Deterministic fault injection (src/fault).  Disabled by default
     * (all rates zero, watchdog off): every fault hook is then
     * structurally absent and runs are bit-identical to a build without
     * the subsystem.  Enabling any site also enables the graceful-
     * degradation machinery (MAC validation drops, DMA retry/drop,
     * doorbell retry, poison skips) and registers the "fault" stat
     * subtree.
     */
    FaultPlan faults;

    /// @name Workload
    /// @{
    unsigned sendRingFrames = 1024;
    static constexpr unsigned recvPoolBuffers = 1024;

    /**
     * One profile per direction (src/traffic), the paper's stream by
     * default: rxTraffic drives the receive MAC through a
     * TrafficEngine, and txTraffic makes the host driver post the
     * flow-tagged send frames of a TxSchedule.  A per-flow FlowSink
     * validates each direction.  An empty profile offers no traffic: an
     * empty rxTraffic idles the receive wire (a fleet node then receives
     * only what its peers forward), and txTraffic may be empty only on
     * a vnic run.  TSO (firmware.tsoSegments > 1) needs txTraffic to be
     * one fixed-size flow.
     */
    TrafficProfile rxTraffic = TrafficProfile::paper();
    TrafficProfile txTraffic = TrafficProfile::paper();

    /**
     * When nonzero, meter host send-descriptor posting to this
     * fraction of 10 Gb/s line rate (measured in wire time) instead
     * of keeping the send ring full.  Must lie in [0, 1] (NaN
     * is fatal, not unpaced), and stay 0 on vnic and TSO runs.  The
     * transmit wire then carries the profile's intended offered load
     * rather than saturating -- fleets that must recover from fabric
     * faults need this headroom, because retransmissions into a
     * wire-rate stream can only ratchet the switch egress FIFO.
     */
    double txPaceRate = 0.0;
    /// @}

    /**
     * SR-IOV-style virtualization (src/vnic, DESIGN.md §13).  Each
     * entry is one virtual function with its own traffic profiles,
     * DRR weight, rate contracts, and tenant-private fault plan; the
     * VnicMux arbitrates them over the shared datapath.  A vnic run
     * owns the workload and fault configuration, so rxTraffic and
     * txTraffic must be empty and faults disabled.  Empty (the
     * default) means a single-function NIC with every vnic
     * hook structurally absent and runs bit-identical to a build
     * without the subsystem.
     */
    std::vector<VfConfig> vfs;

    /**
     * Reject a settable value outside its range, or a combination of
     * modes that cannot run together, with a FatalError that names the
     * field.  NicController calls it before building anything, and
     * FleetConfig::validate() calls it for every node.
     */
    void validate() const;
};

} // namespace tengig

#endif // TENGIG_NIC_NIC_CONFIG_HH
