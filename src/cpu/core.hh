/**
 * @file
 * Out-of-order core — the single-thread façade over the unified
 * pipeline engine (cpu/pipeline/engine.hh).
 *
 * Core is PipelineEngine with exactly one thread behind the original
 * single-thread API the attack harnesses, benches and examples
 * consume. It adds no pipeline behaviour of its own: every stage runs
 * in the shared engine, and tests/test_smt.cc pins both this façade
 * and SmtCore(1 thread) cycle-for-cycle against golden traces captured
 * from the pre-unification pipeline.
 *
 * The hierarchy and main memory are shared with other agents (the
 * attacker); the predictor is owned but externally trainable, exactly
 * like a real branch predictor primed by an attacker-controlled run.
 */

#ifndef SPECINT_CPU_CORE_HH
#define SPECINT_CPU_CORE_HH

#include <string>
#include <vector>

#include "cpu/core_types.hh"
#include "cpu/pipeline/engine.hh"

namespace specint
{

class Core
{
  public:
    Core(CoreConfig cfg, CoreId id, Hierarchy &hier, MainMemory &mem);

    /** Install the active speculation-safety scheme. */
    void setScheme(SchemePtr scheme) { engine_.setScheme(0, std::move(scheme)); }
    Scheme &scheme() { return engine_.scheme(0); }

    /** Attach a noise model (nullptr = noiseless). */
    void setNoise(NoiseModel *noise) { engine_.setNoise(noise); }

    /** Run @p fn once at the start of cycle @p at of the next run
     *  (see PipelineEngine::scheduleAction). */
    void scheduleAction(Tick at, PipelineEngine::TimedAction fn)
    {
        engine_.scheduleAction(at, std::move(fn));
    }

    BranchPredictor &predictor() { return engine_.predictor(0); }
    /** The engine's shared stall predicate (no stage can transition
     *  this cycle) — the same definition fast-forward uses. */
    bool allThreadsStalled() const
    {
        return engine_.allThreadsStalled();
    }
    const CoreConfig &config() const { return engine_.config(); }
    CoreId id() const { return engine_.id(); }
    Hierarchy &hierarchy() { return engine_.hierarchy(); }

    /** Execute @p prog to completion (or maxCycles). */
    CoreStats run(const Program &prog);

    /** Restore the just-constructed state (scheme, predictor, noise,
     *  timed action) so a pooled core can host a history-independent
     *  trial; see PipelineEngine::resetForRun. */
    void resetForRun() { engine_.resetForRun(); }

    /** Timing trace of labeled retired instructions (last run). */
    const std::vector<InstTraceEntry> &trace() const
    {
        return engine_.trace(0);
    }

    /** Find the trace entry for @p label (nullptr if absent). */
    const InstTraceEntry *traceEntry(const std::string &label) const
    {
        return engine_.traceEntry(0, label);
    }

    /** Convenience: completion time of the labeled instruction
     *  (kTickMax if it never retired). */
    Tick completeTime(const std::string &label) const
    {
        return engine_.completeTime(0, label);
    }

    /** Order check: did @p a complete before @p b? */
    bool completedBefore(const std::string &a, const std::string &b) const
    {
        return completeTime(a) < completeTime(b);
    }

    /** Architectural register value (after run: final state). */
    std::uint64_t archReg(RegId reg) const
    {
        return engine_.archReg(0, reg);
    }

    /** The underlying unified engine (System/bench introspection). */
    PipelineEngine &engine() { return engine_; }

  private:
    PipelineEngine engine_;
};

} // namespace specint

#endif // SPECINT_CPU_CORE_HH
