/**
 * @file
 * Scheduler stage component of the unified pipeline engine: the
 * safety stage (scheme exposures / deferred updates at each load's
 * safe point) and the age-ordered, port-constrained issue stage with
 * the speculation-scheme hooks (load policies, fence gates, advanced-
 * defense preemption).
 *
 * Issue candidates from all threads are merged in global dispatch-
 * stamp order, so with one thread the schedule reduces exactly to
 * single-core ROB order. Each thread's candidates come from its exact
 * ready set (ThreadContext::readySet), already in age order, and a
 * per-cycle port memo skips candidates whose port denial is already
 * known. The scheduler is deliberately performance-
 * greedy and speculation-oblivious beyond the scheme hooks — the root
 * cause the paper identifies (§3.2): readiness-based resource
 * allocation lets mis-speculated instructions delay older,
 * retirement-bound ones.
 */

#ifndef SPECINT_CPU_PIPELINE_SCHEDULER_HH
#define SPECINT_CPU_PIPELINE_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/exec_unit.hh"
#include "cpu/lsq.hh"
#include "cpu/pipeline/thread_context.hh"
#include "cpu/reservation_station.hh"
#include "memory/hierarchy.hh"
#include "memory/mshr.hh"
#include "sim/noise.hh"
#include "smt/smt_config.hh"

namespace specint
{

class Scheduler
{
  public:
    Scheduler(const CoreConfig &cfg, const SmtConfig &smt, CoreId id,
              ReservationStation &rs, Lsq &lsq, PortSet &ports,
              MshrFile &mshr, Hierarchy &hier, MainMemory &mem)
        : cfg_(cfg), id_(id), rs_(rs), lsq_(lsq), ports_(ports),
          mshr_(mshr), hier_(hier), mem_(mem),
          settledOps_(smt.numThreads, 0)
    {}

    /** Safety transitions: perform pending exposure accesses and
     *  deferred replacement updates for loads past their safe point. */
    void safety(std::vector<std::unique_ptr<ThreadContext>> &threads,
                Tick now);

    /** Wakeup/select: issue up to issueWidth ready instructions from
     *  all threads in global age order. */
    void issue(std::vector<std::unique_ptr<ThreadContext>> &threads,
               Tick now, NoiseModel *noise);

  private:
    /** One thread's age-ordered walk over its ready set this cycle. */
    struct Run
    {
        ThreadContext *th = nullptr;
        /** Age (ROB index) of the next candidate, and its record. */
        std::size_t age = 0;
        DynInst *inst = nullptr;
        /** The thread's frontiers this cycle, and its safe prefix
         *  (safeUpTo). */
        Frontiers f;
        std::size_t safe = 0;
    };

    static_assert(kNumOps <= 16, "per-op memo masks are 16 bits wide");
    static std::uint16_t
    opBit(Op op)
    {
        return static_cast<std::uint16_t>(1u << static_cast<unsigned>(op));
    }

    /** Attempt to issue @p inst, at @p age under its thread's
     *  frontiers @p f, which is @p safe (past its safe point) or not.
     *  @return true if it left the RS. */
    bool tryIssue(ThreadContext &th, DynInst &inst, std::size_t age,
                  const Frontiers &f, bool safe, Tick now,
                  NoiseModel *noise);
    /** Load-specific issue path (store forwarding, MSHRs, the scheme's
     *  speculative-load policy). */
    bool issueLoad(ThreadContext &th, DynInst &inst, bool safe,
                   bool speculative, Tick now, NoiseModel *noise);
    static std::uint64_t execute(const DynInst &inst);

    const CoreConfig &cfg_;
    CoreId id_;
    ReservationStation &rs_;
    Lsq &lsq_;
    PortSet &ports_;
    MshrFile &mshr_;
    Hierarchy &hier_;
    MainMemory &mem_;

    /** Reused per-cycle buffer (hot path: no per-cycle alloc). */
    std::vector<Run> runs_;
    /** @name Per-cycle port memo (see issue())
     *  Bit opBit(op) of blockedOps_: every port of the op class is
     *  unavailable this cycle. Bit opBit(op) of settledOps_[tid]: a
     *  candidate of thread tid and this op class was denied a port
     *  this cycle. */
    /// @{
    std::uint16_t blockedOps_ = 0;
    std::vector<std::uint16_t> settledOps_;
    /// @}
};

} // namespace specint

#endif // SPECINT_CPU_PIPELINE_SCHEDULER_HH
