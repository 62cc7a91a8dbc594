/**
 * @file
 * Commit-side stage component of the unified pipeline engine: in-order
 * retirement, the bandwidth-limited writeback (CDB) stage with branch
 * resolution, and precise per-thread squash on mispredictions.
 *
 * Cross-thread arbitration for the shared cdbWidth writeback slots
 * runs in global dispatch-stamp order (SeqNums are per-thread); a
 * squash on one thread releases only that thread's structural
 * resources — a sibling's ports, MSHRs and window entries are never
 * touched.
 */

#ifndef SPECINT_CPU_PIPELINE_COMMIT_UNIT_HH
#define SPECINT_CPU_PIPELINE_COMMIT_UNIT_HH

#include <memory>
#include <utility>
#include <vector>

#include "cpu/exec_unit.hh"
#include "cpu/lsq.hh"
#include "cpu/pipeline/thread_context.hh"
#include "cpu/reservation_station.hh"
#include "memory/hierarchy.hh"
#include "memory/mshr.hh"

namespace specint
{

class CommitUnit
{
  public:
    CommitUnit(const CoreConfig &cfg, CoreId id, ReservationStation &rs,
               Lsq &lsq, PortSet &ports, MshrFile &mshr, Hierarchy &hier,
               MainMemory &mem)
        : cfg_(cfg), id_(id), rs_(rs), lsq_(lsq), ports_(ports),
          mshr_(mshr), hier_(hier), mem_(mem)
    {}

    /** Retire up to retireWidth written-back head instructions per
     *  thread, applying stores, pending exposures and deferred
     *  replacement updates at their visibility point. */
    void retire(std::vector<std::unique_ptr<ThreadContext>> &threads,
                Tick now);

    /** Resolve completed branches (squashing on mispredicts) and
     *  arbitrate value producers for the shared CDB slots in global
     *  age order, waking same-thread consumers. */
    void writeback(std::vector<std::unique_ptr<ThreadContext>> &threads,
                   Tick now);

  private:
    static void wakeIfConsumer(ThreadContext &th, DynInst &inst,
                               const DynInst &producer, Tick now);
    void wakeConsumers(ThreadContext &th, const DynInst &producer,
                       Tick now);
    void resolveBranch(ThreadContext &th, DynInst &br, Tick now);
    void squashAfter(ThreadContext &th, const DynInst &br, Tick now);
    /** Lazily interned "core<id>.t<tid>" event-trace track. */
    std::uint32_t threadTraceTrack(ThreadId tid);

    const CoreConfig &cfg_;
    CoreId id_;
    ReservationStation &rs_;
    Lsq &lsq_;
    PortSet &ports_;
    MshrFile &mshr_;
    Hierarchy &hier_;
    MainMemory &mem_;

    /** Reused CDB-arbitration buffer (hot path: no per-cycle alloc). */
    std::vector<std::pair<ThreadContext *, DynInst *>> cands_;

    /** Cached event-trace track ids, indexed by thread. */
    std::vector<std::uint32_t> threadTraceTracks_;
};

} // namespace specint

#endif // SPECINT_CPU_PIPELINE_COMMIT_UNIT_HH
