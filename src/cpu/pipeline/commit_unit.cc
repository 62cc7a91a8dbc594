/**
 * @file
 * Commit-side stages of the unified engine. Stores, pending
 * exposure accesses and deferred replacement updates become visible at
 * retirement; branches resolve at writeback and squash precisely and
 * thread-locally; value producers arbitrate for the shared CDB slots
 * oldest (dispatch stamp) first.
 */

#include "cpu/pipeline/commit_unit.hh"

#include <algorithm>
#include <cassert>

#include "sim/obs/trace.hh"

namespace specint
{

std::uint32_t
CommitUnit::threadTraceTrack(ThreadId tid)
{
    if (threadTraceTracks_.size() <= tid)
        threadTraceTracks_.resize(tid + 1, 0);
    std::uint32_t &slot = threadTraceTracks_[tid];
    if (slot == 0) {
        slot = obs::EventTracer::global().track(
            "core" + std::to_string(id_) + ".t" +
            std::to_string(tid));
    }
    return slot;
}

void
CommitUnit::retire(std::vector<std::unique_ptr<ThreadContext>> &threads,
                   Tick now)
{
    for (auto &tp : threads) {
        ThreadContext &th = *tp;
        for (unsigned n = 0; n < cfg_.retireWidth && !th.rob.empty();
             ++n) {
            DynInst &h = th.rob.head();
            if (h.state != InstState::WrittenBack)
                break;

            if (h.isStore()) {
                // Stores update memory and the cache at retirement:
                // they are never speculative when they reach this
                // point. Write intent acquires Modified ownership
                // under the coherence model (the deferred upgrade of
                // schemes that held it back at issue).
                mem_.write(h.effAddr(), h.result());
                hier_.access(id_, h.effAddr(), AccessType::Data, now,
                             MemIntent::Write, /*train=*/false);
                th.stores.erase(th.rob.slotOf(h));
            }
            if (h.isLoad()) {
                if (h.exposurePending) {
                    // The prefetcher trained (scheme permitting) when
                    // the invisible request was issued; the exposure
                    // replay must not train it a second time.
                    hier_.access(id_, h.effAddr(), AccessType::Data, now,
                                 MemIntent::Read, /*train=*/false);
                    h.exposurePending = false;
                }
                if (h.deferredTouchPending) {
                    hier_.l1DeferredTouch(id_, h.effAddr());
                    h.deferredTouchPending = false;
                }
                th.pendingVisibility.erase(th.rob.slotOf(h));
            }
            if (!opTraits(h.op).pipelined)
                th.nonPipelined.erase(th.rob.slotOf(h));
            if (h.ifetchExposureLine() != kAddrInvalid) {
                hier_.access(id_, h.ifetchExposureLine(), AccessType::Instr,
                             now);
            }

            if (h.writesReg())
                th.archRegs[h.si().dst] = h.result();
            if (h.writesReg() && th.renameMap[h.si().dst] == h.seq)
                th.renameMap[h.si().dst] = kSeqNumInvalid;

            rs_.release(h); // no-op unless entries are held until retire
            lsq_.release(h);
            if (h.isBranch())
                th.checkpoints.erase(h.seq);
            if (h.isHalt()) {
                th.haltRetired = true;
                th.stats.cycles = now;
            }

            h.state = InstState::Retired;
            ++th.stats.retired;

            if (obs::tracingEnabled()) {
                // One span per retired instruction: dispatch to
                // retirement, the window the instruction occupied a
                // ROB slot.
                obs::EventTracer::global().complete(
                    threadTraceTrack(th.tid), "inst", "pipeline",
                    h.dispatchedAt(), now - h.dispatchedAt(), "pc", h.pc(),
                    "seq", h.seq);
            }

            if (h.si().labeled) {
                th.trace.push_back({std::string(th.prog->label(h.pc())),
                                    h.pc(), h.seq,
                                    h.dispatchedAt(), h.issuedAt(),
                                    h.completeAt, now,
                                    h.effAddr()});
            }
            th.rob.popHead();
        }
    }
}

void
CommitUnit::wakeIfConsumer(ThreadContext &th, DynInst &inst,
                           const DynInst &producer, Tick now)
{
    bool woke = false;
    if (!inst.src1Ready && inst.src1Prod() == producer.seq) {
        inst.src1Ready = true;
        inst.src1Val() = producer.result();
        woke = true;
    }
    if (!inst.src2Ready && inst.src2Prod() == producer.seq) {
        inst.src2Ready = true;
        inst.src2Val() = producer.result();
        woke = true;
    }
    if (woke) {
        // Writeback-to-issue delay: a freshly woken consumer can
        // issue at the earliest on the cycle after the writeback —
        // the gap the G^D_NPEU cascade exploits (Fig. 3).
        inst.readyAt = std::max(inst.readyAt, now + 1);
        if (inst.src1Ready && inst.src2Ready)
            th.readySet.insert(th.rob.slotOf(inst));
    }
}

void
CommitUnit::wakeConsumers(ThreadContext &th, const DynInst &producer,
                          Tick now)
{
    if (!producer.c().waiterOverflow) {
        // Wake the consumers registered at rename. Every entry is
        // re-validated (presence, state, srcProd match), so duplicates
        // and seqs reused after a squash are harmless no-ops.
        for (unsigned i = 0; i < producer.c().numWaiters; ++i) {
            DynInst *inst = th.rob.find(producer.c().waiters[i]);
            if (inst && inst->state == InstState::Dispatched)
                wakeIfConsumer(th, *inst, producer, now);
        }
        return;
    }
    // Waiter list overflowed: scan the younger entries. Consumers are
    // strictly younger; seqs are contiguous, so the producer sits at
    // index (seq - headSeq) and the scan can start at its successor.
    const std::size_t first =
        static_cast<std::size_t>(producer.seq - th.rob.head().seq) + 1;
    for (std::size_t i = first; i < th.rob.size(); ++i) {
        DynInst &inst = *th.rob.at(i);
        if (inst.state == InstState::Dispatched)
            wakeIfConsumer(th, inst, producer, now);
    }
}

void
CommitUnit::resolveBranch(ThreadContext &th, DynInst &br, Tick now)
{
    assert(br.isBranch() && th.unresolvedBranches.contains(th.rob.slotOf(br)));
    br.actualTaken() = evalCond(br.si().cond, br.src1Val(), br.src2Val());
    br.mispredicted() = br.actualTaken() != br.predictedTaken();
    th.unresolvedBranches.erase(th.rob.slotOf(br));
    th.predictor.update(br.pc(), br.actualTaken());
    ++th.stats.branches;
    if (br.mispredicted()) {
        ++th.stats.mispredicts;
        squashAfter(th, br, now);
    }
}

void
CommitUnit::writeback(std::vector<std::unique_ptr<ThreadContext>> &threads,
                      Tick now)
{
    // Each thread's Issued entries are the members of its issued set,
    // walked oldest first: the only entries that can complete. Within
    // a thread, completions act in age order — branches resolve (and a
    // mispredict squashes every younger entry) before value producers
    // join the global CDB arbitration below. Branches produce no value
    // and do not contend for CDB slots.
    cands_.clear();
    for (auto &tp : threads) {
        ThreadContext &th = *tp;
        if (now < th.minWbAt)
            continue; // no Issued entry of this thread completes yet
        // Recompute the thread's writeback bound while walking: the
        // earliest completion among Issued entries still in flight.
        // Complete entries that lose CDB arbitration below re-arm it
        // to now + 1.
        Tick new_min = kTickMax;
        const std::size_t head = th.rob.headSlot();
        for (std::size_t age = th.issued.nextByAge(head, 0);
             age != SlotSet::kNone;
             age = th.issued.nextByAge(head, age + 1)) {
            DynInst &inst = *th.rob.at(age);
            if (inst.completeAt > now) {
                new_min = std::min(new_min, inst.completeAt);
                continue;
            }
            if (!inst.isBranch()) {
                cands_.emplace_back(&th, &inst);
                continue;
            }
            inst.state = InstState::WrittenBack;
            th.issued.erase(th.rob.slotOf(inst));
            ports_.releaseIfHeldBy(inst.seq, th.tid);
            resolveBranch(th, inst, now);
            if (inst.mispredicted())
                break; // every younger entry was just squashed
        }
        th.minWbAt = new_min;
    }

    // Value-producing instructions from all threads arbitrate for the
    // shared cdbWidth slots in global age (dispatch-stamp) order.
    // Losing the arbitration delays the result broadcast — the CDB
    // contention channel of Fig. 1.
    // A single thread's ROB is already in dispatch (stamp) order;
    // only a real cross-thread merge needs the sort.
    if (threads.size() > 1) {
        std::sort(cands_.begin(), cands_.end(),
                  [](const auto &a, const auto &b) {
                      return a.second->stamp < b.second->stamp;
                  });
    }
    unsigned slots = cfg_.cdbWidth;
    for (auto &[th, inst] : cands_) {
        if (slots == 0) {
            // Loser: still Issued and complete; it re-arbitrates next
            // cycle, so re-arm its thread's writeback bound.
            th->minWbAt = std::min(th->minWbAt, now + 1);
            continue;
        }
        inst->state = InstState::WrittenBack;
        const std::size_t slot = th->rob.slotOf(*inst);
        th->issued.erase(slot);
        th->incompleteLoads.erase(slot);
        th->incompleteStores.erase(slot);
        ports_.releaseIfHeldBy(inst->seq, th->tid);
        wakeConsumers(*th, *inst, now);
        --slots;
    }
}

void
CommitUnit::squashAfter(ThreadContext &th, const DynInst &br, Tick now)
{
    const SeqNum bound = br.seq;

    // Release structural resources held by this thread's squashed
    // instructions (every entry after the branch); a sibling's
    // holdings are untouched.
    const std::size_t first =
        static_cast<std::size_t>(bound - th.rob.head().seq) + 1;
    for (std::size_t i = first; i < th.rob.size(); ++i) {
        DynInst &inst = *th.rob.at(i);
        th.forgetSlot(th.rob.slotOf(inst));
        rs_.release(inst);
        lsq_.release(inst);
    }
    th.rob.squashYoungerThan(bound);
    ports_.squashThread(th.tid, bound);
    mshr_.squashThread(th.tid, bound);
    th.filter.squashYoungerThan(bound);

    // Restore the rename map from the branch's checkpoint; discard
    // checkpoints belonging to squashed (younger) branches.
    const auto it = th.checkpoints.find(bound);
    assert(it != th.checkpoints.end());
    th.renameMap = it->second;
    th.checkpoints.erase(std::next(it), th.checkpoints.end());

    // Per-thread SeqNums of squashed instructions are reused: every
    // structure referencing them (ports, MSHRs, checkpoints, filter
    // caches) was purged above, and reuse keeps the ROB's contiguous
    // seq invariant (O(1) lookup) intact. The global dispatch stamp is
    // never reused, so cross-thread age arbitration stays consistent
    // across squashes.
    th.nextSeq = bound + 1;

    const std::uint32_t new_pc =
        br.actualTaken() ? br.si().target : br.pc() + 1;
    th.frontend.redirect(new_pc, now + cfg_.squashPenalty);
    ++th.stats.squashes;

    if (obs::tracingEnabled()) {
        obs::EventTracer::global().instant(
            threadTraceTrack(th.tid), "squash", "pipeline", now,
            "branch_pc", br.pc(), "redirect_pc", new_pc);
    }
}

} // namespace specint
