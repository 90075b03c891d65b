/**
 * @file
 * Flow-level traffic engine.
 *
 * TrafficEngine composes many concurrent Flows into one frame stream
 * toward the NIC's receive MAC.  Each flow keeps its own arrival
 * process and size model; departures are serialized onto the 10 Gb/s
 * link with real Ethernet wire timing (a frame occupies the wire for
 * preamble + frame + IFG byte times, and two flows can never overlap),
 * so an aggregate offered rate of 1.0 saturates the link exactly.  One
 * paced fixed-size flow is the paper's receive stream.  Every frame
 * carries its flow id and a per-flow sequence number in the integrity
 * header, giving the downstream validator (FlowSink) a per-flow
 * ordering contract.
 *
 * Attach a TraceRecorder to persist the exact departure schedule; a
 * TraceReplayer regenerates it bit-for-bit (trace.hh).
 *
 * TxSchedule is the host-side counterpart: a deterministic per-frame
 * (flow, size) sequence the DeviceDriver uses to post mixed-size,
 * flow-tagged send frames from the same profile description.
 */

#ifndef TENGIG_TRAFFIC_TRAFFIC_ENGINE_HH
#define TENGIG_TRAFFIC_TRAFFIC_ENGINE_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/endpoints.hh"
#include "sim/event_queue.hh"
#include "traffic/flow.hh"
#include "traffic/trace.hh"

namespace tengig {

namespace obs { class StatGroup; }

/**
 * Multi-flow workload generator for the receive direction.
 */
class TrafficEngine : public FrameGenerator
{
  public:
    /**
     * @param sink Callback receiving each departing frame; returns
     *             false if the NIC had to drop it.
     */
    TrafficEngine(EventQueue &eq, const TrafficProfile &profile,
                  std::function<bool(FrameData &&)> sink);

    void start(Tick start_tick = 0) override;
    void stop() override { running = false; }
    void setFrameLimit(std::uint64_t n) override { limit = n; }

    std::uint64_t framesOffered() const override { return offered.value(); }
    std::uint64_t framesDropped() const override { return dropped.value(); }
    std::uint64_t payloadBytesOffered() const { return payload.value(); }

    /** Record every departure into @p rec (nullptr detaches). */
    void record(TraceRecorder *rec) { recorder = rec; }

    std::size_t flowCount() const { return flows.size(); }
    const Flow &flow(std::size_t i) const { return *flows[i]; }

    /** Offered payload-size distribution (64-byte buckets). */
    const stats::Histogram &sizeHistogram() const { return sizeHist; }

    /** Register counters into the owner's stat tree (src/obs). */
    void registerStats(obs::StatGroup &g) const;

  private:
    void arrival(std::size_t idx);
    void emit(std::size_t idx);

    EventQueue &eq;
    std::function<bool(FrameData &&)> sink;
    std::vector<std::unique_ptr<Flow>> flows;
    TraceRecorder *recorder = nullptr;
    Tick linkFreeAt = 0;
    std::uint64_t limit = 0;    //!< 0 = unlimited
    std::uint64_t admitted = 0; //!< arrivals admitted against the limit
    bool running = false;

    stats::Counter offered;
    stats::Counter dropped;
    stats::Counter payload;
    stats::Histogram sizeHist{64, 24};
};

/**
 * Deterministic per-frame (flow, payload size) schedule for the host
 * transmit path.  Frame @p index's spec depends only on the profile
 * and seed, so a given workload posts identical send traffic in every
 * run.  Indices must be consumed in order.
 */
class TxSchedule
{
  public:
    explicit TxSchedule(const TrafficProfile &profile);

    /** (flow id, payload bytes) for posted frame number @p index. */
    std::pair<std::uint32_t, unsigned> frameSpec(std::uint64_t index);

    std::size_t flowCount() const { return sizes.size(); }

  private:
    std::vector<double> cumShare;
    std::vector<SizeSampler> sizes;
    Rng pick;
    std::uint32_t flowIdBase;
    std::uint64_t nextIndex = 0;
};

} // namespace tengig

#endif // TENGIG_TRAFFIC_TRAFFIC_ENGINE_HH
