/**
 * @file
 * Load/store queue implementation: conservative memory
 * disambiguation (loads wait for older store addresses), store-to-load
 * forwarding from completed covering stores, and per-thread SMT
 * capacity accounting.
 */

#include "cpu/lsq.hh"

#include <cassert>
#include <numeric>

namespace specint
{

namespace
{

bool
shareFull(const std::vector<unsigned> &used, ThreadId tid,
          unsigned capacity, SharingPolicy policy)
{
    if (policy == SharingPolicy::Partitioned && used.size() > 1) {
        return used[tid] >=
               partitionedShare(capacity,
                                static_cast<unsigned>(used.size()));
    }
    return std::accumulate(used.begin(), used.end(), 0u) >= capacity;
}

} // namespace

bool
Lsq::lqFull(ThreadId tid) const
{
    return shareFull(loads_, tid, lqSize_, lqPolicy_);
}

bool
Lsq::sqFull(ThreadId tid) const
{
    return shareFull(stores_, tid, sqSize_, sqPolicy_);
}

unsigned
Lsq::loads() const
{
    return std::accumulate(loads_.begin(), loads_.end(), 0u);
}

unsigned
Lsq::stores() const
{
    return std::accumulate(stores_.begin(), stores_.end(), 0u);
}

bool
Lsq::canAllocate(const StaticInst &si, ThreadId tid) const
{
    if (si.isLoad())
        return !lqFull(tid);
    if (si.isStore())
        return !sqFull(tid);
    return true;
}

bool
Lsq::allocate(const DynInst &inst)
{
    if (inst.isLoad()) {
        if (lqFull(inst.tid))
            return false;
        ++loads_[inst.tid];
    } else if (inst.isStore()) {
        if (sqFull(inst.tid))
            return false;
        ++stores_[inst.tid];
    }
    return true;
}

void
Lsq::release(const DynInst &inst)
{
    if (inst.isLoad()) {
        assert(loads_[inst.tid] > 0);
        --loads_[inst.tid];
    } else if (inst.isStore()) {
        assert(stores_[inst.tid] > 0);
        --stores_[inst.tid];
    }
}

void
Lsq::clear()
{
    std::fill(loads_.begin(), loads_.end(), 0u);
    std::fill(stores_.begin(), stores_.end(), 0u);
}

DisambigResult
Lsq::check(const DynInst &load, const Rob &rob,
           const std::vector<SeqNum> &storeSeqs) const
{
    assert(load.isLoad());
    DisambigResult res;
    const Addr word = load.effAddr() & ~static_cast<Addr>(7);

    // Walk the older stores oldest-first; the last (nearest) matching
    // store provides the forwarded value.
    const DynInst *match = nullptr;
    for (const SeqNum seq : storeSeqs) {
        if (seq >= load.seq)
            break; // younger than the load: cannot conflict
        const DynInst *inst = rob.find(seq);
        assert(inst && inst->isStore());
        if (!inst->writtenBack()) {
            // Address (and data) not known yet: conservative stall.
            res.blocked = true;
            return res;
        }
        if ((inst->effAddr() & ~static_cast<Addr>(7)) == word)
            match = inst;
    }
    if (match) {
        res.forward = true;
        res.forwardValue = match->result();
    }
    return res;
}

} // namespace specint
