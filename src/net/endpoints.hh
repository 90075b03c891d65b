/**
 * @file
 * The network-side endpoint interface: a paced frame generator feeding
 * the NIC's receive MAC.  Its implementations live in src/traffic;
 * the transmit direction terminates in a per-flow FlowSink there too.
 */

#ifndef TENGIG_NET_ENDPOINTS_HH
#define TENGIG_NET_ENDPOINTS_HH

#include <cstdint>

#include "sim/types.hh"

namespace tengig {

/**
 * Anything that offers a paced stream of frames to the NIC's receive
 * MAC: the multi-flow TrafficEngine (the paper's fixed-size stream is
 * its one-flow case) or a TraceReplayer (src/traffic).
 */
class FrameGenerator
{
  public:
    virtual ~FrameGenerator() = default;

    /** Begin generating frames at @p start_tick. */
    virtual void start(Tick start_tick = 0) = 0;

    /** Stop after the frame currently scheduled. */
    virtual void stop() = 0;

    /** Stop automatically after @p n frames have been offered. */
    virtual void setFrameLimit(std::uint64_t n) = 0;

    virtual std::uint64_t framesOffered() const = 0;
    virtual std::uint64_t framesDropped() const = 0;
};

} // namespace tengig

#endif // TENGIG_NET_ENDPOINTS_HH
