/**
 * @file
 * ThreadContext implementation: per-thread run reset, squashed-slot
 * bookkeeping and operand rename, shared by every stage component of
 * the unified pipeline engine.
 */

#include "cpu/pipeline/thread_context.hh"

namespace specint
{

ThreadContext::ThreadContext(const CoreConfig &cfg, ThreadId t)
    : tid(t), frontend({cfg.fetchWidth, cfg.decodeQueue}),
      rob(cfg.robSize), readySet(cfg.robSize), issued(cfg.robSize),
      unresolvedBranches(cfg.robSize), incompleteLoads(cfg.robSize),
      incompleteStores(cfg.robSize), pendingVisibility(cfg.robSize),
      stores(cfg.robSize), nonPipelined(cfg.robSize)
{
    renameMap.fill(kSeqNumInvalid);
}

void
ThreadContext::resetRun(const Program *p)
{
    prog = p;
    frontend.reset(0);
    rob.clear();
    haltRetired = false;
    nextSeq = 0;
    renameMap.fill(kSeqNumInvalid);
    checkpoints.clear();
    const auto &init = prog->initRegs();
    for (unsigned r = 0; r < kNumRegs; ++r)
        archRegs[r] = init[r];
    stats = ThreadStats{};
    trace.clear();
    minWbAt = 0;
    for (SlotSet *set : {&readySet, &issued, &unresolvedBranches,
                         &incompleteLoads, &incompleteStores,
                         &pendingVisibility, &stores, &nonPipelined})
        set->clear();
    filter.clear();
}

void
ThreadContext::forgetSlot(std::size_t slot)
{
    for (SlotSet *set : {&readySet, &issued, &unresolvedBranches,
                         &incompleteLoads, &incompleteStores,
                         &pendingVisibility, &stores, &nonPipelined})
        set->erase(slot);
}

void
ThreadContext::renameSource(DynInst &inst, RegId src, bool first)
{
    bool *ready = first ? &inst.src1Ready : &inst.src2Ready;
    std::uint64_t *val = first ? &inst.src1Val() : &inst.src2Val();
    SeqNum *prod = first ? &inst.src1Prod() : &inst.src2Prod();

    if (src == kNoReg) {
        *ready = true;
        *val = 0;
        return;
    }
    const SeqNum p = renameMap[src];
    if (p == kSeqNumInvalid) {
        *ready = true;
        *val = archRegs[src];
        return;
    }
    DynInst *pi = rob.find(p);
    if (!pi) {
        // Producer already retired: the architectural value is current.
        *ready = true;
        *val = archRegs[src];
        return;
    }
    if (pi->writtenBack()) {
        *ready = true;
        *val = pi->result();
        return;
    }
    *ready = false;
    *prod = p;
    // inst.seq is assigned before rename (front_unit dispatch), so the
    // producer's waiter list lets writeback wake this consumer without
    // scanning the ROB tail.
    pi->addWaiter(inst.seq);
}

} // namespace specint
