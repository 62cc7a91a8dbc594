/**
 * @file
 * Reorder buffer implementation: bounded ring over parallel hot/cold
 * banks with contiguous sequence numbers and O(1) SeqNum lookup.
 * Alloc/free is index arithmetic plus an in-place slot reset — no
 * allocation on the per-instruction path.
 */

#include "cpu/rob.hh"

#include <cassert>

namespace specint
{

DynInst &
Rob::resetSlot(std::size_t pos)
{
    DynInst &rec = hot_[pos];
    DynInstCold *bank = rec.cold_;
    rec = DynInst{};
    rec.cold_ = bank;
    *bank = DynInstCold{};
    return rec;
}

DynInst &
Rob::allocTail(SeqNum seq)
{
    assert(!full());
    assert(empty() || seq == at(count_ - 1)->seq + 1);
    DynInst &rec = resetSlot(wrap(head_ + count_));
    rec.seq = seq;
    ++count_;
    return rec;
}

DynInst *
Rob::find(SeqNum seq)
{
    if (empty())
        return nullptr;
    const SeqNum headSeq = head().seq;
    if (seq < headSeq || seq > headSeq + (count_ - 1))
        return nullptr;
    return at(seq - headSeq);
}

const DynInst *
Rob::find(SeqNum seq) const
{
    return const_cast<Rob *>(this)->find(seq);
}

void
Rob::popHead()
{
    assert(!empty());
    head_ = wrap(head_ + 1);
    --count_;
}

unsigned
Rob::squashYoungerThan(SeqNum bound)
{
    unsigned n = 0;
    while (!empty() && at(count_ - 1)->seq > bound) {
        --count_;
        ++n;
    }
    return n;
}

void
Rob::clear()
{
    head_ = 0;
    count_ = 0;
}

} // namespace specint
