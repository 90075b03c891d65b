/**
 * @file
 * The 10 Gb/s Ethernet controller: wires the cores, partitioned memory
 * system, hardware assists, firmware, host driver and network together
 * exactly as in Fig. 6 of the paper, and runs duplex workloads.
 */

#ifndef TENGIG_NIC_CONTROLLER_HH
#define TENGIG_NIC_CONTROLLER_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "assist/dma_assist.hh"
#include "assist/mac.hh"
#include "fault/fault.hh"
#include "fault/watchdog.hh"
#include "firmware/frame_level.hh"
#include "firmware/tasks.hh"
#include "host/driver.hh"
#include "mem/host_memory.hh"
#include "mem/icache.hh"
#include "mem/scratchpad.hh"
#include "mem/sdram.hh"
#include "net/endpoints.hh"
#include "nic/nic_config.hh"
#include "obs/stat_registry.hh"
#include "obs/trace_log.hh"
#include "proc/core.hh"
#include "traffic/flow_sink.hh"
#include "traffic/trace.hh"
#include "traffic/traffic_engine.hh"
#include "vnic/vnic.hh"

namespace tengig {

/** Results of a measured run. */
struct NicResults
{
    Tick measuredTicks = 0;
    double txUdpGbps = 0.0;      //!< transmit UDP goodput
    double rxUdpGbps = 0.0;      //!< receive UDP goodput
    double totalUdpGbps = 0.0;   //!< duplex total (Figs. 7/8 y-axis)
    double txFps = 0.0;
    double rxFps = 0.0;
    std::uint64_t txFrames = 0;
    std::uint64_t rxFrames = 0;
    /** Receive frames refused over the window, each counted once:
     *  MAC overrun or validation, and VF policing.  Fleet injections
     *  a node refuses are FleetResults::injectRejected. */
    std::uint64_t rxDropped = 0;
    std::uint64_t errors = 0;    //!< ordering + integrity violations

    /// @name Validation detail (the components behind `errors`)
    /// @{
    std::uint64_t integrityErrors = 0;  //!< corrupt/truncated payloads
    std::uint64_t orderGaps = 0;        //!< missing-sequence events
    std::uint64_t orderDuplicates = 0;  //!< duplicated/regressed frames
    std::uint64_t flowsValidated = 0;   //!< distinct flows seen, both directions
    /// @}

    double aggregateIpc = 0.0;
    std::vector<double> coreIpc; //!< per-core IPC over the window
    CoreStats coreTotals;        //!< summed over cores
    FirmwareProfile profile;     //!< per-function buckets

    /** Receive latency (wire arrival -> host delivery) summary, µs. */
    struct LatencySummary
    {
        std::uint64_t count = 0;
        double meanUs = 0.0;
        double p50Us = 0.0;
        double p95Us = 0.0;
        double p99Us = 0.0;
        double maxUs = 0.0;
    };
    LatencySummary rxLatency;

    double spadGbps = 0.0;       //!< consumed scratchpad bandwidth
    double sdramGbps = 0.0;      //!< consumed frame-memory bandwidth
    double imemGbps = 0.0;       //!< consumed instruction-fill bandwidth
    double imemUtilization = 0.0;
};

/**
 * Fully assembled NIC + host + network simulation.
 */
class NicController
{
  public:
    explicit NicController(const NicConfig &cfg);
    ~NicController();

    /**
     * Run a full-duplex workload.
     *
     * @param warmup Simulated time before measurement starts.
     * @param measure Measured window.
     * @return Throughput/profile results over the measured window.
     */
    NicResults run(Tick warmup, Tick measure);

    /**
     * Transmit-only finite workload: post @p frames, run until all are
     * consumed (or @p limit elapses).  Used by correctness tests.
     */
    NicResults runTxOnly(unsigned frames, Tick limit);

    /** Receive-only finite workload. */
    NicResults runRxOnly(unsigned frames, Tick limit);

    /**
     * Like run(), with hooks fired at the measurement-window edges
     * (used by the coherence trace capture).
     */
    NicResults runWindow(Tick warmup, std::function<void()> on_start,
                         Tick measure, std::function<void()> on_end);

    /// @name Phase API for external drivers (src/fleet)
    /// run()/runWindow() are built from these; a fleet runner drives
    /// many instances' event queues itself in bounded-lag windows, so
    /// it needs the run lifecycle broken into explicit phases:
    /// startRun(), then eq.runUntil(...) as it pleases, then
    /// beginMeasurement() at the window edge, more runUntil, and
    /// finally endMeasurement() + stopRun().
    /// @{
    /** Prime the driver, start the workload sources and the cores. */
    void startRun();

    /** Open the measurement window at the current tick: reset
     *  core/profile stats and snapshot the delivery counters. */
    void beginMeasurement();

    /** Close the measurement window: collect results over the span
     *  since beginMeasurement(). */
    NicResults endMeasurement();

    /** Stop the workload sources and the cores. */
    void stopRun();

    /** Fatal-if-hung check: event queue drained with frames in
     *  flight.  External drivers call this at their window barriers. */
    void checkLiveness();
    /// @}

    /// @name Fleet chaos and health probes (src/fleet)
    /// @{
    /**
     * Freeze every firmware core mid-run: an induced node-stall
     * episode.  Unlike stopRun()'s orderly stopCores(), the firmware
     * watchdog stays armed, so the freeze is *detected* (stall
     * episodes, pipeline dump) rather than masked.
     */
    void freezeCores();

    /** Resume frozen cores at the next clock edge. */
    void thawCores();

    /** Most recent real firmware retirement across all cores -- the
     *  node's heartbeat, sampled by the fleet health monitor. */
    Tick lastFirmwareRetireTick() const;

    /** True while the firmware pipeline has work outstanding. */
    bool pipelineBusy() const;

    /** Pipeline state dump for health diagnostics. */
    std::string pipelineReport() const;

    /**
     * Permanently stop paced transmit posting (cfg.txPaceRate): the
     * fleet drain phase quiesces sources so in-flight reliable
     * deliveries can settle against a finite workload.
     */
    void quiesceTx();
    /// @}

    /// @name External wire (fleet switch) attachment
    /// @{
    /**
     * A frame arrived from the external wire (a peer NIC through the
     * fleet switch).  Identical fate to a generated arrival: wire
     * faults may damage it and the receive MAC decides admission.
     * @retval false if the NIC had to drop it.
     */
    bool injectWireFrame(FrameData &&fd);

    /** Wire-side observer of every transmitted frame, fired after the
     *  local validator.  The fleet switch captures frames here for
     *  forwarding; null (the default) costs one branch per frame. */
    using WireTap = std::function<void(const FrameView &)>;
    void setWireTap(WireTap tap) { wireTap = std::move(tap); }
    /// @}

    /**
     * The registered stat tree spanning every component: cores (per
     * core and totals), firmware profile buckets, memory system, link,
     * and validation counters.  Lookups are checked (an unknown dotted
     * path is fatal).
     */
    const obs::StatGroup &statTree() const { return statRoot; }

    /**
     * Attach a timeline recorder before run(): claims one lane per
     * core plus lanes for the assists and SDRAM, and starts a 1 µs
     * occupancy sampler (scratchpad grants, SDRAM bus busy fraction).
     * The sampler keeps the event queue non-empty, so traced runs must
     * use the bounded run entry points (they all are).
     */
    void attachTrace(obs::TraceLog &t);

    /**
     * Replace the receive-direction generator with a recorded trace
     * (replayed from tick 0 of the run).  Call before run().  The
     * per-flow receive validator checks the trace's flow-tagged frames.
     */
    void useRxTrace(std::istream &in);

    /// @name Component access for tests and benches
    /// @{
    EventQueue &eventQueue() { return eq; }
    DeviceDriver &deviceDriver() { return *driver; }
    FwState &firmwareState() { return *fwState; }
    Scratchpad &scratchpad() { return *spad; }
    GddrSdram &sdram() { return *ram; }
    HostMemory &hostMemory() { return *hostMem; }
    const NicConfig &config() const { return cfg; }

    /** Per-flow wire-side transmit validator. */
    FlowSink &txFlowSink() { return txFlow; }

    /** Per-flow host-side receive validator. */
    FlowSink &rxFlowSink() { return rxFlow; }

    /** The rx generator: attach a TraceRecorder before run().  Null
     *  with no receive profile (an idle vnic or fleet node) and after
     *  useRxTrace(). */
    TrafficEngine *rxTrafficEngine() { return rxEngine; }

    FrameGenerator &frameGenerator() { return *source; }

    /** Fault injector; null unless cfg.faults.enabled() or some VF
     *  carries an enabled fault plan. */
    FaultInjector *faultInjector() { return injector.get(); }

    /** Virtual-function multiplexer; null unless cfg.vfs is set. */
    VnicMux *vnicMux() { return vnic.get(); }

    /** Firmware watchdog; null unless cfg.faults.watchdogCycles set. */
    FirmwareWatchdog *firmwareWatchdog() { return fwWatchdog.get(); }

    MacRx &macRxAssist() { return *macRx; }
    MacTx &macTxAssist() { return *macTx; }
    DmaAssist &dmaReadAssist() { return *dmaRead; }
    DmaAssist &dmaWriteAssist() { return *dmaWrite; }
    /// @}

  private:
    void build();
    void registerAllStats();
    bool rxArrived(FrameData &&fd);
    void txDelivered(const FrameView &v);
    void scheduleOccupancySample();
    void occupancySample();
    void startCores();
    void stopCores();
    NicResults collect(Tick measured, std::uint64_t tx0_frames,
                       std::uint64_t tx0_payload, std::uint64_t rx0_frames,
                       std::uint64_t rx0_payload, std::uint64_t rx0_dropped);
    void resetAllStats();

    /// @name Doorbell delivery with lost-notification recovery
    /// Mailbox writes can be dropped by the fault injector; the host
    /// driver's timeout redelivers the latest value (DoorbellRecovery).
    /// @{
    struct DoorbellChannel
    {
        std::uint64_t latest = 0; //!< newest value the driver rang
        DoorbellRecovery recovery;
    };
    void ringDoorbell(DoorbellChannel &ch, std::uint64_t value,
                      bool send);
    /// @}

    bool vnicOn() const { return !cfg.vfs.empty(); }

    NicConfig cfg;
    EventQueue eq;
    std::unique_ptr<ClockDomain> cpuClk;
    std::unique_ptr<ClockDomain> busClk;

    std::unique_ptr<HostMemory> hostMem;
    std::unique_ptr<Scratchpad> spad;
    std::unique_ptr<GddrSdram> ram;
    std::unique_ptr<InstructionMemory> imem;
    std::vector<std::unique_ptr<ICache>> icaches;

    std::unique_ptr<DeviceDriver> driver;
    FlowSink txFlow{/*lossless=*/true};
    FlowSink rxFlow{/*lossless=*/false};
    std::unique_ptr<FrameGenerator> source;
    TrafficEngine *rxEngine = nullptr; //!< source, when a profile runs
    std::unique_ptr<TxSchedule> txSched;
    Tick txPaceNext = 0;      //!< earliest paced-tx posting tick
    bool txPaceArmed = false; //!< a resumeSend wakeup is scheduled
    bool txQuiesced = false;  //!< paced posting stopped for good

    std::unique_ptr<DmaAssist> dmaRead;
    std::unique_ptr<DmaAssist> dmaWrite;
    std::unique_ptr<MacTx> macTx;
    std::unique_ptr<MacRx> macRx;

    std::unique_ptr<FwState> fwState;
    std::unique_ptr<FwTasks> tasks;
    std::unique_ptr<Dispatcher> dispatcher;

    FirmwareProfile profile;
    std::vector<std::unique_ptr<Core>> cores;

    Addr txBufSdram = 0;
    Addr rxBufSdram = 0;

    obs::StatGroup statRoot;

    /** External wire observer (fleet switch egress capture). */
    WireTap wireTap;

    /** Counter snapshots taken by beginMeasurement(). */
    struct MeasureSnapshot
    {
        Tick startTick = 0;
        std::uint64_t txFrames = 0;
        std::uint64_t txPayload = 0;
        std::uint64_t rxFrames = 0;
        std::uint64_t rxPayload = 0;
        std::uint64_t rxDropped = 0;
        std::uint64_t spadAccesses = 0;
        std::uint64_t ramBytes = 0;
        std::uint64_t imemBytes = 0;
    };
    MeasureSnapshot snap;

    /// @name Receive-latency bookkeeping (wire arrival -> delivery)
    /// @{
    stats::Histogram rxLatencyHist{250 * tickPerNs, 400}; //!< 100 µs span
    std::unordered_map<std::uint64_t, Tick> rxInFlight;
    /// @}

    /// @name Occupancy sampling for the timeline recorder
    /// @{
    unsigned occLane = obs::noTraceLane;
    std::uint64_t occSpadPrev = 0;
    std::uint64_t occSdramBusyPrev = 0;
    RecurringEvent occEvent;
    /// @}

    /// @name Fault injection and graceful degradation (src/fault)
    /// @{
    std::unique_ptr<FaultInjector> injector;   //!< null when disabled
    std::unique_ptr<VnicMux> vnic;             //!< null without VFs
    std::unique_ptr<FirmwareWatchdog> fwWatchdog;
    LivenessMonitor liveness;
    DoorbellChannel sendDb;
    DoorbellChannel recvDb;
    /// @}
};

} // namespace tengig

#endif // TENGIG_NIC_CONTROLLER_HH
