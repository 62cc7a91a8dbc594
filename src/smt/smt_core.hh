/**
 * @file
 * Simultaneous-multithreading out-of-order core — the N-thread
 * orchestration of the unified pipeline engine (cpu/pipeline/).
 *
 * SmtCore runs N architectural threads on one physical core. Each
 * thread owns its frontend, branch predictor, ROB, rename state and
 * speculation-safety scheme; the finite pipeline resources are shared
 * between the threads according to SmtConfig: ROB/RS/LQ/SQ capacity is
 * statically partitioned or competitively shared, fetch is arbitrated
 * round-robin or by ICOUNT, and the issue ports and L1-D MSHRs are
 * fully shared — both threads hit the same PortSet and MshrFile, and
 * all SMT threads share the core's private caches (same CoreId in the
 * hierarchy).
 *
 * Cross-thread age arbitration (CDB slots, issue order) uses the
 * core-global dispatch stamp on DynInst, since SeqNums are per-thread.
 * Squash is strictly per-thread: a mispredict on thread A flushes only
 * A's ROB/frontend/rename state and releases only A's ports and MSHRs.
 *
 * All of that behaviour lives in PipelineEngine — SmtCore only
 * forwards. With numThreads == 1 every shared-resource policy
 * degenerates and the engine is cycle-identical to the plain Core
 * façade (pinned against golden pre-unification traces by
 * tests/test_smt.cc).
 *
 * This is the substrate of the §2.1 SMT attacker placement: a sibling
 * thread observes a victim's *speculative* port and MSHR usage
 * directly, with no cache channel at all (see attack/smt_probe.hh).
 */

#ifndef SPECINT_SMT_SMT_CORE_HH
#define SPECINT_SMT_SMT_CORE_HH

#include <string>
#include <utility>
#include <vector>

#include "cpu/core.hh"
#include "cpu/pipeline/engine.hh"
#include "smt/fetch_arbiter.hh"
#include "smt/smt_config.hh"

namespace specint
{

/** Per-thread statistics of one SMT run (engine ThreadStats). */
using SmtThreadStats = ThreadStats;

/** Aggregate result of one SMT run (engine run result). */
using SmtRunResult = EngineRunResult;

class SmtCore
{
  public:
    SmtCore(CoreConfig cfg, SmtConfig smt, CoreId id, Hierarchy &hier,
            MainMemory &mem)
        : engine_(cfg, smt, id, hier, mem, "SmtCore")
    {}

    unsigned numThreads() const { return engine_.numThreads(); }
    const CoreConfig &config() const { return engine_.config(); }
    const SmtConfig &smtConfig() const { return engine_.smtConfig(); }
    CoreId id() const { return engine_.id(); }
    Hierarchy &hierarchy() { return engine_.hierarchy(); }

    /** Install thread @p tid's speculation-safety scheme. */
    void setScheme(ThreadId tid, SchemePtr scheme)
    {
        engine_.setScheme(tid, std::move(scheme));
    }
    Scheme &scheme(ThreadId tid) { return engine_.scheme(tid); }

    /** Attach a noise model shared by all threads (nullptr = none). */
    void setNoise(NoiseModel *noise) { engine_.setNoise(noise); }
    NoiseModel *noiseModel() const { return engine_.noiseModel(); }

    BranchPredictor &predictor(ThreadId tid)
    {
        return engine_.predictor(tid);
    }

    /** The engine's shared stall predicate (no stage can transition
     *  this cycle) — the same definition fast-forward uses. */
    bool allThreadsStalled() const
    {
        return engine_.allThreadsStalled();
    }

    /** Run one program per thread to completion (or maxCycles). */
    SmtRunResult run(const std::vector<const Program *> &progs)
    {
        return engine_.run(progs);
    }

    /** @name Per-thread run introspection (mirrors Core's helpers). */
    /// @{
    const std::vector<InstTraceEntry> &trace(ThreadId tid) const
    {
        return engine_.trace(tid);
    }
    const InstTraceEntry *traceEntry(ThreadId tid,
                                     const std::string &label) const
    {
        return engine_.traceEntry(tid, label);
    }
    Tick completeTime(ThreadId tid, const std::string &label) const
    {
        return engine_.completeTime(tid, label);
    }
    std::uint64_t archReg(ThreadId tid, RegId reg) const
    {
        return engine_.archReg(tid, reg);
    }
    /// @}

    /** Fetch-stage grants per thread over the last run (fairness). */
    const std::vector<std::uint64_t> &fetchGrants() const
    {
        return engine_.fetchGrants();
    }

    /** The underlying unified engine. */
    PipelineEngine &engine() { return engine_; }

  private:
    PipelineEngine engine_;
};

} // namespace specint

#endif // SPECINT_SMT_SMT_CORE_HH
