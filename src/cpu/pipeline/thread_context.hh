/**
 * @file
 * Per-thread pipeline context of the unified engine.
 *
 * ThreadContext owns everything an architectural thread carries
 * through the pipeline — frontend, branch predictor, ROB, rename
 * state, architectural registers, speculation-safety scheme, stats and
 * traces — plus the per-thread helper computations (safe-point checks,
 * operand rename) every stage consults. The stage components in this
 * directory operate on one or more ThreadContexts and the shared
 * structures (RS/LSQ/ports/MSHRs) owned by the PipelineEngine.
 *
 * With one ThreadContext the engine is the plain out-of-order core;
 * with N it is the SMT core. tests/test_smt.cc pins the single-thread
 * configuration against golden cycle traces captured from the
 * pre-unification pipeline.
 */

#ifndef SPECINT_CPU_PIPELINE_THREAD_CONTEXT_HH
#define SPECINT_CPU_PIPELINE_THREAD_CONTEXT_HH

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/core_types.hh"
#include "cpu/frontend.hh"
#include "cpu/program.hh"
#include "cpu/rob.hh"
#include "spec/scheme.hh"

namespace specint
{

/** Per-thread statistics of one engine run. */
struct ThreadStats
{
    /** Cycle at which this thread's Halt retired (run end if never). */
    Tick cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t issued = 0;
    std::uint64_t squashes = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t loadL1Hits = 0;
    bool finished = false;

    /** @name Cross-thread contention counters (the SMT channel). */
    /// @{
    /** Cycles the fetch arbiter granted this thread the fetch stage. */
    std::uint64_t fetchGrants = 0;
    /** Cycles a ready instruction of this thread was denied an issue
     *  port that a sibling thread held or had consumed. */
    std::uint64_t portContendedCycles = 0;
    /** Cycles a load of this thread was denied an MSHR while sibling
     *  threads held at least one entry. */
    std::uint64_t mshrContendedCycles = 0;
    /** Cycles dispatch stalled on a full RS share. */
    std::uint64_t rsBlockedCycles = 0;
    /// @}
};

/** One per-cycle cross-thread contention sample (recordContention). */
struct ContentionSample
{
    Tick cycle = 0;
    /** Ports whose non-pipelined unit a sibling holds this cycle. */
    std::uint8_t portsHeldByOther = 0;
    /** Port 0 (the NPEU port) held by a sibling this cycle. */
    bool port0HeldByOther = false;
    /** MSHR entries held by siblings this cycle. */
    std::uint8_t mshrHeldByOther = 0;
    /** This thread experienced a port denial this cycle. */
    bool portContended = false;
    /** This thread experienced an MSHR denial this cycle. */
    bool mshrContended = false;
};

/** Per-instruction speculative-shadow context: does an older entry of
 *  the same thread still have each shadow-casting property? */
struct ShadowInfo
{
    bool olderUnresolvedBranch = false;
    bool olderIncompleteLoad = false;
    bool olderIncompleteMem = false;
};

/**
 * Fold one instruction into a running ShadowInfo. Walking the ROB in
 * age order and reading @p running *before* each step yields the
 * shadows of strictly older entries — the single definition shared by
 * the safety stage and the fast-forward predicate.
 */
inline void
shadowStep(ShadowInfo &running, const DynInst &inst)
{
    if (inst.isBranch() && !inst.resolved)
        running.olderUnresolvedBranch = true;
    if (inst.isLoad() && !inst.executed()) {
        running.olderIncompleteLoad = true;
        running.olderIncompleteMem = true;
    }
    if (inst.isStore() && !inst.executed())
        running.olderIncompleteMem = true;
}

/** Per-thread pipeline context (see file comment). */
struct ThreadContext
{
    using RenameMap = std::array<SeqNum, kNumRegs>;

    ThreadContext(const CoreConfig &cfg, ThreadId t);

    ThreadId tid;
    Frontend frontend;
    BranchPredictor predictor;
    Rob rob;
    SchemePtr scheme;

    const Program *prog = nullptr;
    bool haltRetired = false;
    SeqNum nextSeq = 0;

    std::array<std::uint64_t, kNumRegs> archRegs{};
    RenameMap renameMap{};
    std::map<SeqNum, RenameMap> checkpoints;

    ThreadStats stats;
    std::vector<InstTraceEntry> trace;
    std::vector<ContentionSample> samples;

    /** @name Per-cycle flags */
    /// @{
    bool dispatchBlocked = false;
    bool portContended = false;
    bool mshrContended = false;
    /// @}

    /** Conservative lower bound on the next cycle any of this
     *  thread's Issued instructions can write back: the writeback
     *  stage skips its ROB scans while now < minWbAt. Lowered at
     *  issue, recomputed during each writeback scan; a stale-low
     *  value only costs a wasted scan, never a missed event. */
    Tick minWbAt = 0;

    /** Number of set exposurePending/deferredTouchPending flags across
     *  this thread's ROB (each flag counts separately). The safety
     *  stage skips its ROB walk while zero — permanently so under
     *  schemes that never defer visibility (Unsafe, fence-style). */
    unsigned pendingVisibility = 0;

    /** @name Issue-stage candidate tracking
     *  @ref readySet is the exact set of issue candidates, one bit per
     *  ROB ring slot: bit s is set iff slot s holds a live entry that
     *  is Dispatched with both sources ready. Every transition into or
     *  out of that condition updates it — set at dispatch, on the
     *  wakeup that readies the last source and when an EU preemption
     *  returns an instruction to Dispatched; cleared at issue and for
     *  every squashed slot (retirement needs nothing: a retiring entry
     *  left the set when it issued). An entry keeps its slot for life
     *  and live slots run from the ROB head slot in age order, so
     *  walking the members from the head yields the candidates oldest
     *  first: no lookup, revalidation or sort.
     *  PipelineEngine::checkInvariants() verifies the set against the
     *  ROB. The three counters track how many ROB entries currently
     *  have each shadow-relevant property, letting the issue stage
     *  find the oldest instance of each with an early-exit scan
     *  instead of walking the whole window. */
    /// @{
    SlotSet readySet;
    unsigned numUnresolvedBranches = 0;
    unsigned numIncompleteLoads = 0;
    unsigned numIncompleteStores = 0;
    /// @}

    /** Seqs of instructions currently Issued (in flight toward
     *  writeback), pushed at issue. A superset: the writeback stage
     *  revalidates and compacts it each pass, so entries stranded by
     *  a squash, an EU preemption or a reused seq are dropped there.
     *  Bounds the writeback scan to the few in-flight instructions
     *  instead of the whole window. */
    std::vector<SeqNum> inflightQ;

    /** Seqs of this thread's in-flight stores, sorted by age. Unlike
     *  inflightQ this list is exact, not self-compacting: a store is
     *  appended at dispatch, dropped from the front when it retires
     *  (retirement is age-ordered) and from the back when a squash
     *  discards it — so disambiguating a load walks only the older
     *  stores instead of the whole window prefix. */
    std::vector<SeqNum> storeSeqs;

    /** Reset all run state and start executing @p p from its entry. */
    void resetRun(const Program *p);

    /** Is @p inst past safe point @p sp given its shadow info? */
    bool isSafe(const DynInst &inst, const ShadowInfo &sh,
                SafePoint sp) const;

    /** Read a source register through the rename map; registers
     *  @p inst on the producer's waiter list when the value is still
     *  in flight. */
    void renameSource(DynInst &inst, RegId src, bool first);
};

} // namespace specint

#endif // SPECINT_CPU_PIPELINE_THREAD_CONTEXT_HH
