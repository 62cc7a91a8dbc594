/**
 * @file
 * Per-thread pipeline context of the unified engine.
 *
 * ThreadContext owns everything an architectural thread carries
 * through the pipeline — frontend, branch predictor, ROB, rename
 * state, architectural registers, speculation-safety scheme and
 * MuonTrap filter cache, stats and traces — plus the per-thread helper computations (speculation
 * frontiers and safe points, operand rename) every stage consults.
 * The stage components in this directory operate on one or more
 * ThreadContexts and the shared structures (RS/LSQ/ports/MSHRs) owned
 * by the PipelineEngine.
 *
 * With one ThreadContext the engine is the plain out-of-order core;
 * with N it is the SMT core. tests/test_smt.cc pins the single-thread
 * configuration against golden cycle traces captured from the
 * pre-unification pipeline.
 */

#ifndef SPECINT_CPU_PIPELINE_THREAD_CONTEXT_HH
#define SPECINT_CPU_PIPELINE_THREAD_CONTEXT_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/core_types.hh"
#include "cpu/frontend.hh"
#include "cpu/program.hh"
#include "cpu/rob.hh"
#include "sim/log.hh"
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
    /** Cycles the fetch arbiter granted this thread the fetch stage
     *  (fairness). A grant is a fetch transition, so no skipped cycle
     *  has one. */
    std::uint64_t fetchGrants = 0;

    /** @name Sibling-occupancy integrals (the SMT probe's score)
     *  What a sibling thread holds, whether or not this thread asks
     *  for it; always zero on a 1-thread engine. Both are integrals
     *  over every cycle of the run, ticked or skipped: a skipped span
     *  adds them arithmetically, since nothing can allocate, free or
     *  re-hold either resource inside it. They are the only statistics
     *  that accrue in a dead cycle. */
    /// @{
    /** Cycles port 0's non-pipelined unit was busy with a sibling's
     *  op. */
    std::uint64_t siblingPort0Cycles = 0;
    /** L1-D MSHR entry-cycles held by siblings (each entry counts
     *  every cycle it is live). */
    std::uint64_t siblingMshrCycles = 0;
    /// @}
};

/**
 * A thread's speculation frontiers: the age (distance from the ROB
 * head, 0 = oldest) of its oldest unresolved branch, oldest incomplete
 * (not written back) load and oldest incomplete store. SlotSet::kNone
 * means none; it compares above every age, so an empty set casts no
 * shadow. An entry at age a has an older member of a set iff that
 * set's frontier is below a.
 */
struct Frontiers
{
    std::size_t branch = SlotSet::kNone;
    std::size_t load = SlotSet::kNone;
    std::size_t store = SlotSet::kNone;
};

/**
 * The largest age past safe point @p sp: an entry is safe iff its age
 * is at most this (kNone: every entry). Every SafePoint is
 * prefix-closed in age order — an entry younger than an unsafe one is
 * unsafe too — so one age answers the question for the whole window.
 */
inline std::size_t
safeUpTo(const Frontiers &f, SafePoint sp)
{
    switch (sp) {
      case SafePoint::Always:
        return SlotSet::kNone;
      case SafePoint::BranchesResolved:
        return f.branch;
      case SafePoint::TSO:
        return std::min({f.branch, f.load, f.store});
      case SafePoint::RobHead:
        return 0;
    }
    panic("safeUpTo: unknown SafePoint");
}

/** Every non-pipelined op class issues on port 0 alone, so one denial
 *  of port 0 answers for all of them: ThreadContext keeps a single
 *  nonPipelined set, not one per op class. */
constexpr bool
nonPipelinedOpsUsePort0Only()
{
    for (const OpTraits &t : kOpTraits) {
        if (!t.pipelined && (t.ports.size() != 1 || t.ports[0] != 0))
            return false;
    }
    return true;
}
static_assert(nonPipelinedOpsUsePort0Only(),
              "the nonPipelined slot set assumes every non-pipelined op "
              "issues on port 0 only");

/** Does @p inst, at age @p age, wait for memory disambiguation: is it
 *  a load with an older store not written back (address unknown)? */
inline bool
waitsOnStore(const DynInst &inst, std::size_t age, const Frontiers &f)
{
    return inst.isLoad() && f.store < age;
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
    Scheme scheme;
    /** MuonTrap's L0 (SpecLoadPolicy::InvisibleFilter only). */
    FilterCache filter;

    const Program *prog = nullptr;
    bool haltRetired = false;
    SeqNum nextSeq = 0;

    std::array<std::uint64_t, kNumRegs> archRegs{};
    RenameMap renameMap{};
    std::map<SeqNum, RenameMap> checkpoints;

    ThreadStats stats;
    std::vector<InstTraceEntry> trace;

    /** Dispatch found this thread's LQ/SQ share exhausted this cycle
     *  (FrontUnit::dispatch skips it for the cycle's remaining slots). */
    bool dispatchBlocked = false;

    /** Conservative lower bound on the next cycle any of this
     *  thread's Issued instructions can write back: the writeback
     *  stage skips its walk over @ref issued while now < minWbAt.
     *  Lowered at issue, recomputed during each writeback walk; a
     *  stale-low value only costs a wasted walk, never a missed event. */
    Tick minWbAt = 0;

    /** @name Per-slot sets
     *  Exact sets of this thread's ROB entries, one bit per ring slot.
     *  An entry keeps its slot for life and live slots run from the ROB
     *  head slot in age order, so walking a set's members from the
     *  head (SlotSet::nextByAge) yields them oldest first, and the
     *  first member is the oldest: no scan, lookup, revalidation or
     *  sort. Every transition into or out of a set's condition updates
     *  it; a squash clears the squashed slots from all eight
     *  (forgetSlot). PipelineEngine::checkInvariants() rebuilds each
     *  set from the ROB and compares. */
    /// @{
    /** Issue candidates: Dispatched with both sources ready. Set at
     *  dispatch, on the wakeup that readies the last source and when
     *  an EU preemption returns an instruction to Dispatched; cleared
     *  at issue. */
    SlotSet readySet;
    /** Issued entries, in flight to writeback: set at issue, cleared
     *  at writeback and by an EU preemption. */
    SlotSet issued;
    /** Branches not yet resolved: set at dispatch, cleared when the
     *  branch resolves at writeback. */
    SlotSet unresolvedBranches;
    /** Loads and stores not yet written back: set at dispatch, cleared
     *  when they win a CDB slot. */
    SlotSet incompleteLoads;
    SlotSet incompleteStores;
    /** Loads with a deferred exposure or replacement touch
     *  (exposurePending or deferredTouchPending): set when the load
     *  issues with one, cleared when the safety stage or retirement
     *  performs it. */
    SlotSet pendingVisibility;
    /** Every store: set at dispatch, cleared at retirement; store-to-load
     *  forwarding walks it (Lsq::forwardingStore). */
    SlotSet stores;
    /** Every non-pipelined op (FpSqrt, FpDiv): set at dispatch, cleared
     *  at retirement. Once one of them is denied port 0 in a cycle, the
     *  issue stage leaves the thread's younger members out of the rest
     *  of that cycle's walk, and nextTransitionAt() leaves them out of
     *  its bound (see Scheduler::issue()). */
    SlotSet nonPipelined;
    /// @}

    /** Reset all run state and start executing @p p from its entry. */
    void resetRun(const Program *p);

    /** This thread's speculation frontiers: the one source of every
     *  shadow and safe-point question (see safeUpTo()). */
    Frontiers
    frontiers() const
    {
        const std::size_t head = rob.headSlot();
        Frontiers f;
        f.branch = unresolvedBranches.nextByAge(head, 0);
        f.load = incompleteLoads.nextByAge(head, 0);
        f.store = incompleteStores.nextByAge(head, 0);
        return f;
    }

    /** The issue stage's gates: may @p inst, a ready candidate at @p age
     *  under frontiers @p f and safe prefix @p safe, not even attempt
     *  issue? A gated candidate changes no state; only a frontier move
     *  or a retirement lifts a gate. */
    bool
    issueGated(const DynInst &inst, std::size_t age, const Frontiers &f,
               std::size_t safe) const
    {
        // Loads the scheme parked until their safe point; fences, which
        // serialise (issue only from the ROB head); the scheme's fence,
        // which waits on its own frontiers, never the store frontier.
        const IssueFence fence = scheme.issueFence();
        return (inst.loadPhase == LoadPhase::WaitSafe && age > safe) ||
               (inst.isFence() && age != 0) ||
               (fence != IssueFence::None && f.branch < age) ||
               (fence == IssueFence::BranchesAndLoads && f.load < age);
    }

    /** Clear a squashed ring slot from every per-slot set. */
    void forgetSlot(std::size_t slot);

    /** Read a source register through the rename map; registers
     *  @p inst on the producer's waiter list when the value is still
     *  in flight. */
    void renameSource(DynInst &inst, RegId src, bool first);
};

} // namespace specint

#endif // SPECINT_CPU_PIPELINE_THREAD_CONTEXT_HH
