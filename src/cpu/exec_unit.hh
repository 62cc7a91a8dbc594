/**
 * @file
 * Issue-port / functional-unit occupancy model.
 *
 * Each of the kNumPorts issue ports accepts at most one instruction
 * per cycle. A *pipelined* unit is then free again the next cycle; a
 * *non-pipelined* unit (VSQRTPD/VDIVPD on port 0) stays busy for the
 * full operation latency — the property the G^D_NPEU gadget exploits
 * to block older ready instructions (§3.2.2, Fig. 3).
 *
 * The advanced defense's "squashable EU" option (§5.4) is supported
 * via preempt(): a busy non-pipelined unit can be freed on demand when
 * an older instruction requests it; the preempted instruction must be
 * re-issued by the scheduler.
 */

#ifndef SPECINT_CPU_EXEC_UNIT_HH
#define SPECINT_CPU_EXEC_UNIT_HH

#include <array>

#include "cpu/isa.hh"
#include "sim/types.hh"

namespace specint
{

class PortSet
{
  public:
    PortSet() { reset(); }

    /**
     * Can an instruction of class @p op issue on port @p port now?
     * Checks the one-issue-per-cycle slot and non-pipelined occupancy.
     */
    bool canIssue(std::uint8_t port, Tick now) const;

    /**
     * Pick the first usable port for @p op in its preference order,
     * or -1 if none is available this cycle.
     */
    int selectPort(Op op, Tick now) const;

    /** Record an issue. Non-pipelined ops occupy the unit until
     *  @p busy_until; pipelined ops only consume this cycle's slot.
     *  @p tid tags the holder's SMT thread (0 on a 1-thread core). */
    void issue(std::uint8_t port, Op op, Tick now, Tick busy_until,
               SeqNum holder, bool holder_speculative, ThreadId tid = 0);

    /** Free the unit when its op completes or is squashed. Holder
     *  SeqNums are per-thread, so the owner thread must match. */
    void releaseIfHeldBy(SeqNum holder, ThreadId tid = 0);

    /** Free units held by squashed (younger) instructions of thread 0
     *  (single-thread core path). */
    void squashYoungerThan(SeqNum bound) { squashThread(0, bound); }

    /** Per-thread squash: free only units held by squashed (younger)
     *  instructions of @p tid — a sibling thread's mispredict must
     *  never release this thread's units. */
    void squashThread(ThreadId tid, SeqNum bound);

    /**
     * Advanced defense: preempt the non-pipelined unit on @p port if
     * it is held by a *speculative* instruction of the same thread
     * younger than @p requester. SeqNums are per-thread, so cross-
     * thread preemption is meaningless and never happens.
     * @return the preempted holder's seq, or kSeqNumInvalid.
     */
    SeqNum preempt(std::uint8_t port, SeqNum requester, ThreadId tid = 0);

    /** Would preempt(@p port, @p requester, @p tid) succeed? */
    bool preemptible(std::uint8_t port, SeqNum requester,
                     ThreadId tid) const
    {
        return holder_[port] != kSeqNumInvalid && holderSpec_[port] &&
               holderTid_[port] == tid && holder_[port] > requester;
    }

    /** Who currently occupies the (non-pipelined) unit on @p port. */
    SeqNum holder(std::uint8_t port) const { return holder_[port]; }

    /** SMT thread of the current holder of @p port. */
    ThreadId holderTid(std::uint8_t port) const { return holderTid_[port]; }

    /** Is @p port unusable for thread @p tid this cycle *because of
     *  another thread* (busy non-pipelined unit held by a sibling, or
     *  this cycle's issue slot consumed by a sibling)? The per-cycle
     *  observable the SMT port-contention channel integrates. */
    bool contendedByOther(std::uint8_t port, ThreadId tid, Tick now) const;

    /** Any of @p op's candidate ports contended by another thread? */
    bool opContendedByOther(Op op, ThreadId tid, Tick now) const;

    /** Is the non-pipelined unit on @p port busy at @p now? */
    bool busy(std::uint8_t port, Tick now) const
    {
        return busyUntil_[port] > now;
    }

    /** First cycle the non-pipelined unit on @p port is free again. */
    Tick busyUntil(std::uint8_t port) const { return busyUntil_[port]; }

    void reset();

  private:
    std::array<Tick, kNumPorts> busyUntil_;
    std::array<Tick, kNumPorts> lastIssueCycle_;
    std::array<SeqNum, kNumPorts> holder_;
    std::array<bool, kNumPorts> holderSpec_;
    std::array<ThreadId, kNumPorts> holderTid_;
    std::array<ThreadId, kNumPorts> lastIssueTid_;
};

} // namespace specint

#endif // SPECINT_CPU_EXEC_UNIT_HH
