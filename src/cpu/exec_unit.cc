/**
 * @file
 * Issue-port / functional-unit occupancy implementation:
 * pipelined vs non-pipelined busy accounting, the preempt() hook for
 * the advanced defense's squashable EUs, and the per-thread holder
 * tagging the SMT layer uses for the sibling port-0 integral and
 * thread-local squash.
 */

#include "cpu/exec_unit.hh"

namespace specint
{

void
PortSet::reset()
{
    busyUntil_.fill(0);
    lastIssueCycle_.fill(kTickMax);
    holder_.fill(kSeqNumInvalid);
    holderSpec_.fill(false);
    holderTid_.fill(0);
}

bool
PortSet::canIssue(std::uint8_t port, Tick now) const
{
    if (busyUntil_[port] > now)
        return false;
    if (lastIssueCycle_[port] == now)
        return false;
    return true;
}

int
PortSet::selectPort(Op op, Tick now) const
{
    for (std::uint8_t p : opTraits(op).ports)
        if (canIssue(p, now))
            return p;
    return -1;
}

void
PortSet::issue(std::uint8_t port, Op op, Tick now, Tick busy_until,
               SeqNum holder, bool holder_speculative, ThreadId tid)
{
    lastIssueCycle_[port] = now;
    if (!opTraits(op).pipelined) {
        busyUntil_[port] = busy_until;
        holder_[port] = holder;
        holderSpec_[port] = holder_speculative;
        holderTid_[port] = tid;
    }
}

void
PortSet::releaseIfHeldBy(SeqNum holder, ThreadId tid)
{
    for (unsigned p = 0; p < kNumPorts; ++p) {
        if (holder_[p] == holder && holderTid_[p] == tid) {
            busyUntil_[p] = 0;
            holder_[p] = kSeqNumInvalid;
            holderSpec_[p] = false;
            holderTid_[p] = 0;
        }
    }
}

void
PortSet::squashThread(ThreadId tid, SeqNum bound)
{
    for (unsigned p = 0; p < kNumPorts; ++p) {
        if (holder_[p] != kSeqNumInvalid && holderTid_[p] == tid &&
            holder_[p] > bound) {
            busyUntil_[p] = 0;
            holder_[p] = kSeqNumInvalid;
            holderSpec_[p] = false;
            holderTid_[p] = 0;
        }
    }
}

SeqNum
PortSet::preempt(std::uint8_t port, SeqNum requester, ThreadId tid)
{
    if (!preemptible(port, requester, tid))
        return kSeqNumInvalid;
    const SeqNum h = holder_[port];
    busyUntil_[port] = 0;
    holder_[port] = kSeqNumInvalid;
    holderSpec_[port] = false;
    holderTid_[port] = 0;
    return h;
}

} // namespace specint
