/**
 * @file
 * The unified out-of-order pipeline engine.
 *
 * PipelineEngine is the one pipeline implementation in the simulator:
 * a dynamically scheduled core in the style the paper assumes (§2.3) —
 * in-order fetch/dispatch into per-thread ROBs and a unified RS,
 * age-ordered port-constrained issue to pipelined and non-pipelined
 * execution units, a bandwidth-limited writeback (CDB) stage, precise
 * per-thread squash, and in-order retirement — generalised to N
 * architectural (SMT) threads. The stages live in the component
 * classes of this directory (CommitUnit, Scheduler, FrontUnit,
 * ThreadContext); the engine owns the shared structures
 * (RS/LSQ/ports/MSHRs/fetch arbiter) and orchestrates one cycle in
 * reverse pipeline order so producers wake consumers with a one-cycle
 * boundary.
 *
 * Facades: cpu/core.hh (Core) is this engine with one thread behind
 * the original single-thread API; smt/smt_core.hh (SmtCore) is the
 * N-thread orchestration; system/system.hh steps N engines over one
 * shared Hierarchy via the incremental beginRun()/step() API.
 *
 * The speculation-safety Scheme (src/spec) is consulted at load issue,
 * at every instruction's issue (fence defenses), and in the scheduler
 * (advanced defense). The engine deliberately leaves the rest of the
 * pipeline policy *performance-greedy and speculation-oblivious* —
 * that is the root cause the paper identifies (§3.2).
 */

#ifndef SPECINT_CPU_PIPELINE_ENGINE_HH
#define SPECINT_CPU_PIPELINE_ENGINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/exec_unit.hh"
#include "cpu/lsq.hh"
#include "cpu/pipeline/commit_unit.hh"
#include "cpu/pipeline/front_unit.hh"
#include "cpu/pipeline/scheduler.hh"
#include "cpu/pipeline/thread_context.hh"
#include "cpu/reservation_station.hh"
#include "memory/hierarchy.hh"
#include "memory/mshr.hh"
#include "sim/noise.hh"
#include "smt/fetch_arbiter.hh"
#include "smt/smt_config.hh"

namespace specint
{

/** Aggregate result of one engine run. */
struct EngineRunResult
{
    /** Total cycles simulated. */
    Tick cycles = 0;
    /** All threads ran to Halt (vs hitting maxCycles). */
    bool finished = false;
    std::vector<ThreadStats> threads;
};

class PipelineEngine
{
  public:
    /**
     * @param name how the façade that owns the engine appears in
     * runtime diagnostics ("Core", "SmtCore", "System core 2", ...).
     * @param config_context prefix for configuration fatal()s
     * ("CoreConfig", "SystemConfig(core 2)", ...); defaults to @p name.
     */
    PipelineEngine(CoreConfig cfg, SmtConfig smt, CoreId id,
                   Hierarchy &hier, MainMemory &mem,
                   std::string name = "PipelineEngine",
                   std::string config_context = "");
    ~PipelineEngine();

    unsigned numThreads() const { return smt_.numThreads; }
    const CoreConfig &config() const { return cfg_; }
    const SmtConfig &smtConfig() const { return smt_; }
    CoreId id() const { return id_; }
    Hierarchy &hierarchy() { return *hier_; }

    /** Install thread @p tid's speculation-safety scheme. */
    void setScheme(ThreadId tid, SchemePtr scheme);
    Scheme &scheme(ThreadId tid);

    /** Attach a noise model shared by all threads (nullptr = none). */
    void setNoise(NoiseModel *noise) { noise_ = noise; }
    NoiseModel *noiseModel() const { return noise_; }

    /** A one-shot action of an agent outside the pipeline. */
    using TimedAction = std::function<void()>;
    /**
     * Run @p fn once, at the start of cycle @p at of the current or
     * next run, before any stage. Experiments use it to interleave a
     * concurrent agent with the pipeline — e.g. the attacker's
     * fixed-time LLC reference access in the VD-AD/VI-AD attacks
     * (§3.3.1). One action at a time: scheduling replaces a pending
     * one. nextTransitionAt() is bounded by @p at, so fast-forward
     * never skips over it; finishRun() drops an action the run ended
     * before, so it never carries into the next run.
     */
    void scheduleAction(Tick at, TimedAction fn);

    BranchPredictor &predictor(ThreadId tid);

    /** Run one program per thread to completion (or maxCycles),
     *  skipping dead cycles (see "Stall fast-forward" below). */
    EngineRunResult run(const std::vector<const Program *> &progs);

    /**
     * Restore the engine to its just-constructed state so it can host
     * a fresh, history-independent trial without reallocation: drops
     * the noise model, a pending timed action and any installed
     * schemes (back to UnsafeScheme), and clears predictor state.
     * beginRun() covers everything else (ROB/RS/LSQ/ports/MSHRs/
     * clock). The ROB's SoA banks and the shared structures keep
     * their storage.
     */
    void resetForRun();

    /** @name Incremental run API (the System layer's tick loop).
     *  beginRun(), step() until false, finishRun() is the literal
     *  tick-every-cycle loop: the differential reference run() is
     *  tested against. */
    /// @{
    /** Reset the pipeline and start executing @p progs (one per
     *  thread) from cycle 0. */
    void beginRun(const std::vector<const Program *> &progs);
    /** Simulate one cycle (never skips). @return false if the engine
     *  was already done (all Halts retired or maxCycles reached) and
     *  no cycle was simulated. */
    bool step();
    /** Every thread's Halt has retired. */
    bool halted() const { return allHalted(); }
    /** Current cycle of this engine's local clock. */
    Tick now() const { return now_; }
    /** Collect the run result (also emits the maxCycles warning) and
     *  drop a timed action that has not fired. */
    EngineRunResult finishRun();
    /// @}

    /**
     * @name Stall fast-forward
     *
     * Every structure in the engine is time-queried against now() —
     * MSHRs expire on lookup, ports and the frontend keep busy-until
     * times, fills carry completion cycles — so a cycle in which no
     * stage can transition is pure clock advance. nextTransitionAt()
     * computes the earliest cycle at which any stage could change
     * state; when that is in the future, fastForwardTo() jumps the
     * clock there in one step. The skip is legal iff no structure
     * transitions in between — see docs/architecture.md for the
     * invariant and tests/test_golden_traces.cc /
     * tests/test_fastforward_fuzz.cc for the differential proof
     * against the literal step() loop. Every run is eligible: the
     * per-cycle counters that accrue in a dead span (RS-blocked
     * dispatch, port denials, sibling occupancy) are added
     * arithmetically for the whole span.
     */
    /// @{
    /**
     * Earliest cycle at which any pipeline structure can change state:
     * now() if a stage would transition this cycle, the minimum
     * pending event time otherwise, kTickMax if nothing is in flight
     * (deadlock — the run ends at maxCycles, exactly as the naive tick
     * loop would).
     */
    Tick nextTransitionAt() const;
    /**
     * The shared stall predicate: no stage can change state this
     * cycle. The one definition used by fast-forward and by the
     * Core/SmtCore façades.
     */
    bool allThreadsStalled() const { return nextTransitionAt() > now_; }
    /** nextTransitionAt() on behalf of a skip attempt, counted as one
     *  fast-forward probe (core<N>.ff.probes). While metrics are
     *  armed, a probe that finds a transition due now is also counted
     *  under the stage gate that found it (core<N>.ff.blocked.*). The
     *  probe also records which threads' port denials repeat over the
     *  span, for fastForwardTo(). */
    Tick probeTransition();
    /** Skip dead cycles up to @p bound. @return cycles skipped. */
    Tick fastForward(Tick bound);
    /** Advance the clock to @p target (clamped to maxCycles),
     *  accounting the per-cycle stats that accrue while stalled; a
     *  move counts as one skip (core<N>.ff.skips). The caller asserts
     *  the skipped range is dead: @p target is at most what
     *  probeTransition() returned at this now(). */
    void fastForwardTo(Tick target);
    /// @}

    /** @name Per-thread run introspection. */
    /// @{
    const std::vector<InstTraceEntry> &trace(ThreadId tid) const;
    const InstTraceEntry *traceEntry(ThreadId tid,
                                     const std::string &label) const;
    Tick completeTime(ThreadId tid, const std::string &label) const;
    std::uint64_t archReg(ThreadId tid, RegId reg) const;
    /// @}

    /**
     * Check the incremental scheduling state against the ROB: each
     * thread's ready set holds exactly the live, Dispatched entries
     * with both sources ready, and the unresolved-branch /
     * incomplete-load / incomplete-store counters and the
     * pending-visibility count equal a recount. @return a description
     * of the first violation, empty when all hold. A full-window scan
     * for tests (tests/literal_loop.hh runs it after every cycle);
     * run() never calls it.
     */
    std::string checkInvariants() const;

    /** Fetch-stage grants per thread over the last run (fairness). */
    const std::vector<std::uint64_t> &fetchGrants() const
    {
        return arbiter_.grants();
    }

  private:
    /** The nextTransitionAt() stage gates, in the order it checks
     *  them (core<N>.ff.blocked.<gate> names them). */
    enum class FfGate : std::uint8_t
    {
        Retire,
        Writeback,
        Safety,
        Issue,
        Dispatch,
        Fetch,
    };
    static constexpr unsigned kNumFfGates = 6;

    /** What a nextTransitionAt() walk finds besides the time. */
    struct FfProbe
    {
        /** The stage gate that returned now() (left untouched when
         *  the result is in the future). */
        FfGate gate = FfGate::Retire;
        /** Bit t: thread t has an issue candidate denied a port a
         *  sibling holds, so its portContended flag is set on every
         *  cycle of the span. */
        std::uint32_t portContended = 0;
    };

    Tick nextTransitionAt(FfProbe &probe) const;
    /** For a ready issue candidate of @p th: if the issue stage would
     *  deny @p inst a port and change nothing else — every port of its
     *  op class busy, none preemptible by it — the first cycle one of
     *  those ports frees; now() otherwise. */
    Tick portsFreeAt(const ThreadContext &th, const DynInst &inst) const;
    bool allHalted() const;
    void tick();
    /** Add what siblings hold over [now(), @p to) to each thread's
     *  sibling-occupancy integrals (multi-thread engines only). */
    void accrueSiblingHoldings(Tick to);
    /** Push this run's counters into the global MetricRegistry under
     *  "core<id>.". Called from finishRun() when metrics are armed;
     *  ThreadStats reset every run, so plain counterAdd cannot
     *  double-count. Core 0 also publishes the shared Hierarchy. */
    void publishMetrics();

    CoreConfig cfg_;
    SmtConfig smt_;
    CoreId id_;
    Hierarchy *hier_;
    MainMemory *mem_;
    NoiseModel *noise_ = nullptr;
    std::string name_;

    std::vector<std::unique_ptr<ThreadContext>> threads_;

    // Fully shared structures.
    ReservationStation rs_;
    Lsq lsq_;
    PortSet ports_;
    MshrFile mshr_;
    FetchArbiter arbiter_;

    // Stage components (constructed after the structures they share).
    CommitUnit commit_;
    Scheduler sched_;
    FrontUnit front_;

    Tick now_ = 0;
    /** The pending timed action (kTickMax / empty: none). */
    Tick actionAt_ = kTickMax;
    TimedAction action_;
    /** Lazily interned trace track for fast-forward stall spans. */
    std::uint32_t stallTraceTrack_ = 0;
    /** Fast-forward efficacy this run (reset by beginRun()). */
    std::uint64_t ffProbes_ = 0;
    std::uint64_t ffSkips_ = 0;
    Tick ffSkippedCycles_ = 0;
    /** Probes that found a transition due now, per FfGate (recorded
     *  only while metrics are armed). */
    std::array<std::uint64_t, kNumFfGates> ffBlocked_{};
    /** The last probeTransition(): its cycle and port-denial mask. */
    Tick ffProbeAt_ = kTickMax;
    std::uint32_t ffPortContended_ = 0;
};

} // namespace specint

#endif // SPECINT_CPU_PIPELINE_ENGINE_HH
