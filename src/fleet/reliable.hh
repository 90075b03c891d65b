/**
 * @file
 * End-to-end reliable delivery for cross-node fleet traffic.
 *
 * The protocol reuses the flow-tagged integrity header already
 * stamped on every frame: (flow id, flow sequence) is a fleet-unique
 * name for a frame because FleetConfig::validate enforces disjoint
 * flow-id ranges across nodes, so no extra wire bytes are needed.
 *
 * Sender side (ReliableSender, owned by the fleet coordinator and
 * only ever touched in the single-threaded barrier pass): every
 * offered frame is tracked until its ack returns.  A fabric fault on
 * an attempt marks the record as *owing* that fault class; at the
 * retransmit deadline the owed class is repaid (`recovered`) and the
 * frame is re-offered, with the timeout doubling per attempt up to a
 * cap -- the PR 5 doorbell-retry discipline applied to the fabric.
 * A timeout with nothing owed is fatal: it means the timeout is
 * below the worst-case RTT and a frame that was never lost would have
 * been retransmitted, breaking the exact injected==recovered
 * accounting (DESIGN.md §16).
 *
 * Acks are modeled at the coordinator: a frame that survives the
 * fabric is acked from its arrival tick, the ack crossing back with
 * the fabric latency and subject to the reverse link's flap windows
 * and ack-drop rate.  A lost ack therefore causes a retransmission
 * the receiver must suppress as a duplicate -- at drain,
 * dupSuppressed == ackLost exactly.
 *
 * Receiver side (ReliableReceiver, one per node, mutated only inside
 * that node's scheduled arrival events): discards frames the fabric
 * corrupted (the link-port CRC check), suppresses duplicates, and
 * injects frames into the NIC in per-flow sequence order through a
 * reorder buffer.  A MAC refusal (e.g. buffers full during an induced
 * node stall) is backpressure: the frame stays buffered and a retry
 * event re-attempts injection, pairing every refusal with exactly one
 * retry -- at drain, rxRetries == rxRefusals, mirroring the doorbell
 * lost==retries invariant.
 */

#ifndef TENGIG_FLEET_RELIABLE_HH
#define TENGIG_FLEET_RELIABLE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "fleet/fleet_config.hh"
#include "net/frame.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tengig {

class NicController;
namespace obs { class StatGroup; }

/** The ways one delivery attempt can die in the fabric. */
enum class FabricFaultClass : unsigned
{
    LinkDown = 0, //!< traversal landed in a flap down window
    Drop,         //!< Bernoulli mid-fabric loss
    Corrupt,      //!< arrived CRC-damaged, discarded at the link port
    EgressFull,   //!< refused by the switch's full egress FIFO
    AckLost,      //!< delivered, but the ack died on the way back
};
constexpr unsigned fabricFaultClassCount = 5;

const char *fabricFaultClassName(FabricFaultClass c);

/**
 * Coordinator-side retransmit queue.  All entry points run in the
 * single-threaded barrier pass; iteration orders are fixed by record
 * id (FIFO), never by thread scheduling.
 */
class ReliableSender
{
  public:
    struct Record
    {
        FrameData frame; //!< master copy; each attempt sends a clone
        unsigned src = 0;
        unsigned dst = 0;
        std::uint64_t key = 0; //!< (flow << 32) | seq, for diagnostics
        Tick firstSent = 0;
        Tick deadline = 0;
        unsigned backoff = 0; //!< retransmissions taken so far
        bool ackPending = false;
        std::optional<FabricFaultClass> owed;
    };

    /** @param rto Retransmit timeout base
     *         (FleetConfig::minRetransmitTimeout). */
    explicit ReliableSender(Tick rto);

    /** Start tracking one first-attempt frame.  @return record id. */
    std::uint64_t track(unsigned src, unsigned dst, Tick sent,
                        const FrameData &frame);

    /** The in-flight attempt of @p id died of @p cls. */
    void owe(std::uint64_t id, FabricFaultClass cls);

    /** The in-flight attempt of @p id was delivered; its ack lands at
     *  @p ack_arrival. */
    void ackInFlight(std::uint64_t id, Tick ack_arrival);

    /** Retire every record whose ack arrived by @p now.  Must run
     *  before collectTimeouts at each barrier. */
    void processAcks(Tick now);

    /**
     * Records due for retransmission at @p now, in FIFO order, capped
     * at the per-destination retransmission window (excess
     * records stay due and surface at the next call).  For each
     * returned id, the owed fault class is repaid into the recovered
     * accounting and the backed-off deadline is rearmed; the caller
     * must re-offer record(id).frame with send tick @p now.
     */
    std::vector<std::uint64_t> collectTimeouts(Tick now);

    const Record &record(std::uint64_t id) const { return pending.at(id); }

    /// @name Whole-run accounting
    /// @{
    std::uint64_t recovered(FabricFaultClass c) const
    {
        return recoveredCtr[static_cast<unsigned>(c)].value();
    }
    std::uint64_t retransmitsTaken() const { return retransmits.value(); }
    std::uint64_t backoffTicksTotal() const { return backoffTicks.value(); }
    std::uint64_t ackedTotal() const { return acked.value(); }
    std::size_t pendingCount() const { return pending.size(); }

    /** Unacked records first sent before @p t (the post-storm
     *  recovery contract: zero once the storm-era backlog drains). */
    std::uint64_t pendingOlderThan(Tick t) const;

    std::uint64_t owedOutstanding(FabricFaultClass c) const;
    std::uint64_t owedOutstandingTotal() const;
    /// @}

    /** Register the sender surface into @p g ("reliable" subtree). */
    void registerStats(obs::StatGroup &g);

  private:
    Tick rto;
    std::uint64_t nextId = 1;
    std::map<std::uint64_t, Record> pending; //!< id order == FIFO
    std::vector<std::pair<Tick, std::uint64_t>> acksInFlight;

    stats::Counter recoveredCtr[fabricFaultClassCount];
    stats::Counter retransmits;
    stats::Counter backoffTicks; //!< extra delay beyond the base rto
    stats::Counter acked;
};

/**
 * Node-side receive half: duplicate suppression plus in-order
 * injection.  Mutated only inside the owning node's event queue, so
 * the fleet's barrier discipline makes it thread-safe and
 * deterministic for free.
 */
class ReliableReceiver
{
  public:
    explicit ReliableReceiver(NicController &nic);

    /** One frame arrived off the fabric (a scheduled receipt event). */
    void receive(FrameData &&fd, bool corrupted);

    /// @name Whole-run accounting
    /// @{
    std::uint64_t deliveredTotal() const { return delivered.value(); }
    std::uint64_t dupSuppressed() const { return dups.value(); }
    std::uint64_t corruptDiscarded() const { return corrupt.value(); }
    std::uint64_t rxRefusals() const { return refusals.value(); }
    std::uint64_t rxRetries() const { return retries.value(); }

    /** Frames still parked in reorder buffers. */
    std::uint64_t buffered() const;
    bool drained() const { return buffered() == 0; }
    /// @}

  private:
    struct FlowState
    {
        std::uint32_t next = 0; //!< next sequence to inject
        std::map<std::uint32_t, FrameData> parked;
        bool retryScheduled = false;
    };

    void drainFlow(std::uint32_t flow_id, FlowState &fs);

    NicController &nic;
    std::map<std::uint32_t, FlowState> flows;

    stats::Counter delivered;
    stats::Counter dups;
    stats::Counter corrupt;
    stats::Counter refusals;
    stats::Counter retries;
};

} // namespace tengig

#endif // TENGIG_FLEET_RELIABLE_HH
