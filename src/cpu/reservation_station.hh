/**
 * @file
 * Unified reservation station occupancy tracking.
 *
 * The RS is the finite structure the G^I_RS gadget congests (§3.2.2,
 * Fig. 5): dispatch stalls when it is full, which back-throttles the
 * frontend. Entries are normally freed at issue; under the advanced
 * defense's "no early release" rule (§5.4) they are held until retire,
 * which is exactly what makes RS occupancy operand-independent.
 *
 * Membership itself is tracked on the DynInst (inRs flag); this class
 * owns the capacity accounting so the two free-policies stay in one
 * place. Under SMT the capacity is divided between hardware threads by
 * a SharingPolicy: statically partitioned (each thread owns
 * capacity/numThreads entries) or competitively shared (first come,
 * first served) — the latter is what lets one thread's occupancy
 * back-pressure its sibling.
 */

#ifndef SPECINT_CPU_RESERVATION_STATION_HH
#define SPECINT_CPU_RESERVATION_STATION_HH

#include <vector>

#include "cpu/rob.hh"
#include "smt/policy.hh"

namespace specint
{

class ReservationStation
{
  public:
    explicit ReservationStation(unsigned capacity = 97,
                                unsigned num_threads = 1,
                                SharingPolicy policy =
                                    SharingPolicy::Shared)
        : capacity_(capacity), policy_(policy),
          used_(num_threads == 0 ? 1 : num_threads, 0)
    {}

    unsigned occupancy() const;
    unsigned occupancy(ThreadId tid) const { return used_[tid]; }

    /** May thread @p tid not allocate another entry right now? */
    bool full(ThreadId tid) const;

    /** Dispatch an instruction (accounted to inst.tid's share). */
    void allocate(DynInst &inst);

    /** Free @p inst's entry (no-op if it holds none). */
    void release(DynInst &inst);

    void clear();

  private:
    unsigned capacity_;
    SharingPolicy policy_;
    std::vector<unsigned> used_;
    /** Sum of used_, maintained on allocate/release — full() runs on
     *  every dispatch attempt and back-pressure check. */
    unsigned total_ = 0;
};

} // namespace specint

#endif // SPECINT_CPU_RESERVATION_STATION_HH
