/**
 * @file
 * Load/store queue implementation: store-to-load forwarding from
 * written-back covering stores and per-thread SMT capacity accounting.
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

const DynInst *
Lsq::forwardingStore(const DynInst &load, const Rob &rob,
                     const SlotSet &stores) const
{
    assert(load.isLoad());
    const Addr word = load.effAddr() & ~static_cast<Addr>(7);

    // Walk the older stores oldest-first; the last (nearest) matching
    // store provides the forwarded value.
    const DynInst *match = nullptr;
    const std::size_t head = rob.headSlot();
    for (std::size_t age = stores.nextByAge(head, 0);
         age != SlotSet::kNone; age = stores.nextByAge(head, age + 1)) {
        const DynInst *inst = rob.at(age);
        if (inst->seq >= load.seq)
            break; // younger than the load: cannot conflict
        assert(inst->isStore() && inst->writtenBack());
        if ((inst->effAddr() & ~static_cast<Addr>(7)) == word)
            match = inst;
    }
    return match;
}

} // namespace specint
