/**
 * @file
 * Front-end stages of the unified engine: rotating-priority
 * dispatch with rename-map checkpointing, and fetch through the L1-I
 * cache for the arbiter-granted thread (invisible when the scheme
 * protects the I-cache and the thread is speculating).
 */

#include "cpu/pipeline/front_unit.hh"

namespace specint
{

void
FrontUnit::reset()
{
    dispatchRR_ = 0;
    nextStamp_ = 0;
}

bool
FrontUnit::robFull(
    const ThreadContext &th,
    const std::vector<std::unique_ptr<ThreadContext>> &threads) const
{
    if (smt_.robPolicy == SharingPolicy::Partitioned &&
        smt_.numThreads > 1) {
        return th.rob.size() >=
               partitionedShare(cfg_.robSize, smt_.numThreads);
    }
    unsigned n = 0;
    for (const auto &tp : threads)
        n += static_cast<unsigned>(tp->rob.size());
    return n >= cfg_.robSize;
}

void
FrontUnit::dispatch(std::vector<std::unique_ptr<ThreadContext>> &threads,
                    Tick now)
{
    const unsigned n = smt_.numThreads;
    for (auto &tp : threads)
        tp->dispatchBlocked = false;

    unsigned slots = cfg_.dispatchWidth;
    while (slots > 0) {
        // Rotating-priority pick among threads able to dispatch.
        ThreadContext *th = nullptr;
        for (unsigned k = 0; k < n; ++k) {
            ThreadContext *cand = threads[(dispatchRR_ + k) % n].get();
            if (cand->dispatchBlocked ||
                cand->frontend.queueEmpty() ||
                robFull(*cand, threads) || rs_.full(cand->tid)) {
                continue;
            }
            th = cand;
            break;
        }
        if (!th)
            break;

        const FetchedInst &fi = th->frontend.front();
        const StaticInst &si = th->prog->at(fi.pc);

        if (si.isMem() && !lsq_.canAllocate(si, th->tid)) {
            // LQ/SQ share exhausted: this thread is done for the
            // cycle (with siblings the slot may still go to another
            // thread).
            th->dispatchBlocked = true;
            continue;
        }

        DynInst &stored = th->rob.allocTail(th->nextSeq);
        stored.tid = th->tid;
        stored.stamp = nextStamp_;
        stored.pc() = fi.pc;
        stored.setStaticInst(&si);
        stored.dispatchedAt() = now;
        stored.readyAt = now + 1;
        stored.predictedTaken() = fi.predictedTaken;
        stored.ifetchExposureLine() = fi.exposureLine;

        if (si.isMem())
            lsq_.allocate(stored);

        th->renameSource(stored, si.src1, true);
        // Loads use src1 only as the address base; src2 is unused.
        th->renameSource(stored, si.isLoad() ? kNoReg : si.src2, false);

        if (si.isBranch())
            th->checkpoints[stored.seq] = th->renameMap;
        if (si.writesReg())
            th->renameMap[si.dst] = stored.seq;

        rs_.allocate(stored);
        const std::size_t slot = th->rob.slotOf(stored);
        if (stored.src1Ready && stored.src2Ready)
            th->readySet.insert(slot);
        if (stored.isBranch()) {
            th->unresolvedBranches.insert(slot);
        } else if (stored.isLoad()) {
            th->incompleteLoads.insert(slot);
        } else if (stored.isStore()) {
            th->incompleteStores.insert(slot);
            th->stores.insert(slot);
        } else if (!opTraits(stored.op).pipelined) {
            th->nonPipelined.insert(slot);
        }
        ++th->nextSeq;
        ++nextStamp_;
        th->frontend.popFront();
        --slots;
        dispatchRR_ = (static_cast<unsigned>(th->tid) + 1) % n;
    }
}

void
FrontUnit::fetch(std::vector<std::unique_ptr<ThreadContext>> &threads,
                 Tick now)
{
    fetchCands_.resize(threads.size());
    bool any_fetchable = false;
    for (unsigned t = 0; t < threads.size(); ++t) {
        const ThreadContext &th = *threads[t];
        fetchCands_[t].fetchable = th.frontend.canFetch(now);
        any_fetchable |= fetchCands_[t].fetchable;
        fetchCands_[t].icount = static_cast<unsigned>(
            th.rob.size() + th.frontend.queueSize());
    }
    if (!any_fetchable)
        return; // pick() grants nothing and rotates no state
    const int pick = arbiter_.pick(fetchCands_);
    if (pick < 0)
        return;
    ThreadContext &th = *threads[static_cast<unsigned>(pick)];
    ++th.stats.fetchGrants;

    const auto ifetch = [&](Addr line) -> IFetchResult {
        // Speculating iff the thread holds any unresolved branch.
        const bool speculative = th.frontiers().branch != SlotSet::kNone;
        const bool invisible = th.scheme.protectsIFetch() && speculative;
        const MemAccessResult res =
            invisible
                ? hier_.accessInvisible(id_, line, AccessType::Instr, now)
                : hier_.access(id_, line, AccessType::Instr, now);
        const bool l1_hit = res.servedBy == ServedBy::L1;
        return {l1_hit ? now : now + res.latency, invisible};
    };

    th.frontend.tick(now, *th.prog, th.predictor, ifetch);
}

} // namespace specint
