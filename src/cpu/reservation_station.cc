/**
 * @file
 * Unified reservation-station occupancy accounting, including
 * the free-at-issue vs hold-until-retire policies (advanced defense
 * Rule 1) and the partitioned-vs-shared SMT capacity split.
 */

#include "cpu/reservation_station.hh"

#include <cassert>
#include <numeric>

namespace specint
{

unsigned
ReservationStation::occupancy() const
{
    return total_;
}

bool
ReservationStation::full(ThreadId tid) const
{
    if (policy_ == SharingPolicy::Partitioned && used_.size() > 1) {
        return used_[tid] >=
               partitionedShare(capacity_,
                                static_cast<unsigned>(used_.size()));
    }
    return total_ >= capacity_;
}

void
ReservationStation::allocate(DynInst &inst)
{
    assert(!full(inst.tid));
    assert(!inst.inRs);
    inst.inRs = true;
    ++used_[inst.tid];
    ++total_;
}

void
ReservationStation::release(DynInst &inst)
{
    if (!inst.inRs)
        return;
    inst.inRs = false;
    assert(used_[inst.tid] > 0);
    --used_[inst.tid];
    --total_;
}

void
ReservationStation::clear()
{
    std::fill(used_.begin(), used_.end(), 0u);
    total_ = 0;
}

} // namespace specint
