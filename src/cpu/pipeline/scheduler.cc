/**
 * @file
 * Scheduler stages of the unified engine. The safety stage applies
 * scheme-deferred visibility transitions; the issue stage merges all
 * threads' exact ready sets in global dispatch-stamp order and
 * consults the active scheme at every decision point (load policies,
 * fence gates, strict age priority with squashable-EU preemption).
 */

#include "cpu/pipeline/scheduler.hh"

#include <algorithm>
#include <cassert>

#include "sim/log.hh"

namespace specint
{

namespace
{

/** The per-op memo bits (Scheduler::opBit) of every non-pipelined op
 *  class. */
constexpr std::uint16_t kNonPipelinedOps = [] {
    std::uint16_t bits = 0;
    for (unsigned o = 0; o < kNumOps; ++o)
        if (!kOpTraits[o].pipelined)
            bits |= static_cast<std::uint16_t>(1u << o);
    return bits;
}();

} // namespace

void
Scheduler::safety(std::vector<std::unique_ptr<ThreadContext>> &threads,
                  Tick now)
{
    for (auto &tp : threads) {
        ThreadContext &th = *tp;
        const std::size_t head = th.rob.headSlot();
        std::size_t age = th.pendingVisibility.nextByAge(head, 0);
        if (age == SlotSet::kNone)
            continue; // no deferred visibility op anywhere in the ROB
        // Only the safe prefix can act, oldest first; nothing here
        // moves a frontier.
        const std::size_t safe =
            safeUpTo(th.frontiers(), th.scheme.safePoint());
        for (; age != SlotSet::kNone && age <= safe;
             age = th.pendingVisibility.nextByAge(head, age + 1)) {
            DynInst &inst = *th.rob.at(age);
            if (!inst.writtenBack())
                continue;
            if (inst.exposurePending) {
                // InvisiSpec-style exposure: the load's visible cache
                // fill happens now, when it ceases to be speculative.
                // The prefetcher saw this load when its request went
                // out; the exposure replay must not train it again.
                hier_.access(id_, inst.effAddr(), AccessType::Data, now,
                             MemIntent::Read, /*train=*/false);
                inst.exposurePending = false;
            }
            if (inst.deferredTouchPending) {
                // DoM deferred replacement update.
                hier_.l1DeferredTouch(id_, inst.effAddr());
                inst.deferredTouchPending = false;
            }
            th.pendingVisibility.erase(th.rob.slotOf(inst));
        }
    }
}

std::uint64_t
Scheduler::execute(const DynInst &inst)
{
    switch (inst.op) {
      case Op::IntAlu:
        return inst.src1Val() + inst.src2Val() +
               static_cast<std::uint64_t>(inst.si().imm);
      case Op::IntMul:
        return inst.src1Val() * (inst.si().src2 == kNoReg ? 1 : inst.src2Val()) +
               static_cast<std::uint64_t>(inst.si().imm);
      case Op::FpSqrt:
      case Op::FpDiv:
        // Value semantics are irrelevant for the experiments; preserve
        // the dependency chain by passing the operand through.
        return inst.src1Val();
      default:
        return 0;
    }
}

void
Scheduler::issue(std::vector<std::unique_ptr<ThreadContext>> &threads,
                 Tick now, NoiseModel *noise)
{
    // Candidates — Dispatched with both sources ready — are exactly the
    // members of each thread's ready set. Walked from the ROB head slot
    // they come out oldest first, so global dispatch-stamp order (which
    // is also each thread's seq order) is a plain merge of the threads'
    // runs. Nothing during issue() readies a source (wakeups happen at
    // writeback, earlier in the tick); an EU preemption returns its
    // victim to the set with readyAt = now + 1, so whether or not the
    // walk still reaches the victim, it cannot act this cycle.
    runs_.clear();
    for (auto &tp : threads) {
        ThreadContext &th = *tp;
        const std::size_t age = th.readySet.nextByAge(th.rob.headSlot(), 0);
        if (age == SlotSet::kNone)
            continue;
        Run &run = runs_.emplace_back();
        run.th = &th;
        run.age = age;
        run.inst = th.rob.at(age);
        // Nothing during issue() moves a frontier: branches resolve and
        // memory ops complete at writeback, earlier in the tick.
        run.f = th.frontiers();
        run.safe = safeUpTo(run.f, th.scheme.safePoint());
    }
    if (runs_.empty())
        return;

    // Per-cycle port memo. Port state changes during issue only when
    // an instruction issues onto a free port (an EU preemption hands
    // its port straight to the preempting instruction, so the port
    // stays unavailable to everyone else), so availability only ever
    // shrinks within the cycle: an op class found with every port
    // unavailable stays blocked. A thread's op class is "settled" once
    // one of its candidates has been denied a port: a later candidate
    // of that (thread, op) would repeat the same denial, so it is
    // skipped before its (pure) issue gates.
    //
    // Non-pipelined candidates are skipped as a class: they all issue
    // on port 0 alone, so once one of a thread's is denied, the
    // thread's nonPipelined members are left out of the rest of its
    // walk word by word. Candidates that may preempt (strictAgePriority)
    // settle and are skipped too, because preemptibility is monotone
    // in age: PortSet::preemptible() needs a holder younger than the
    // requester, the walk visits a thread's candidates oldest first,
    // and a preemption by another thread installs a holder of that
    // thread. A denied preemptor's younger siblings cannot preempt
    // either.
    blockedOps_ = 0;
    std::fill(settledOps_.begin(), settledOps_.end(), 0);

    unsigned issued = 0;
    while (issued < cfg_.issueWidth && !runs_.empty()) {
        // Oldest head across the threads' runs.
        std::size_t k = 0;
        for (std::size_t i = 1; i < runs_.size(); ++i)
            if (runs_[i].inst->stamp < runs_[k].inst->stamp)
                k = i;
        Run &run = runs_[k];
        ThreadContext &th = *run.th;
        DynInst &inst = *run.inst;

        if (inst.readyAt <= now &&
            !(settledOps_[th.tid] & opBit(inst.op)) &&
            !th.issueGated(inst, run.age, run.f, run.safe) &&
            tryIssue(th, inst, run.age, run.f, run.age <= run.safe, now,
                     noise)) {
            ++issued;
        }

        // Advance this run past the candidate.
        const SlotSet *skip = (settledOps_[th.tid] & kNonPipelinedOps)
                                  ? &th.nonPipelined
                                  : nullptr;
        run.age = th.readySet.nextByAge(th.rob.headSlot(), run.age + 1,
                                        skip);
        if (run.age == SlotSet::kNone) {
            runs_[k] = runs_.back();
            runs_.pop_back();
        } else {
            run.inst = th.rob.at(run.age);
        }
    }
}

bool
Scheduler::tryIssue(ThreadContext &th, DynInst &inst, std::size_t age,
                    const Frontiers &f, bool safe, Tick now,
                    NoiseModel *noise)
{
    const bool speculative = f.branch < age;
    const Op op = inst.op;
    const OpTraits &traits = opTraits(op);
    const SchedFlags flags = th.scheme.schedFlags();
    const bool may_preempt = flags.strictAgePriority && !traits.pipelined;

    int port = (blockedOps_ & opBit(op)) ? -1 : ports_.selectPort(op, now);
    if (port < 0 && may_preempt) {
        // Advanced defense rule 2, thread-local: a younger speculative
        // instruction must never delay an older one — preempt the
        // squashable EU held by a younger speculative instruction of
        // the *same* thread (SeqNums are per-thread).
        for (std::uint8_t p : traits.ports) {
            const SeqNum victim = ports_.preempt(p, inst.seq, th.tid);
            if (victim == kSeqNumInvalid)
                continue;
            DynInst *v = th.rob.find(victim);
            assert(v && v->state == InstState::Issued);
            // The preempted instruction is re-issued later; with the
            // hold-until-retire rule its RS entry still exists.
            v->state = InstState::Dispatched;
            v->issuedAt() = kTickMax;
            v->completeAt = kTickMax;
            v->readyAt = now + 1;
            // Back to Dispatched with both sources still ready: a
            // candidate again from the next cycle on.
            th.issued.erase(th.rob.slotOf(*v));
            th.readySet.insert(th.rob.slotOf(*v));
            if (!v->inRs)
                rs_.allocate(*v);
            port = p;
            break;
        }
    }
    if (port < 0) {
        blockedOps_ |= opBit(op);
        settledOps_[th.tid] |= opBit(op);
        return false;
    }
    // A load waiting on an older store leaves the port it was offered.
    if (waitsOnStore(inst, age, f))
        return false;

    if (inst.isLoad()) {
        if (!issueLoad(th, inst, safe, speculative, now, noise))
            return false;
    } else if (inst.isStore()) {
        inst.effAddr() = inst.src1Val() * inst.si().scale +
                       static_cast<std::uint64_t>(inst.si().imm);
        inst.result() = inst.src2Val();
        inst.completeAt = now + traits.latency;
        // A speculative store's coherence transition (RFO) happens at
        // issue, per the scheme's declared policy: the invalidations
        // it sends to remote sharers are not undone by a squash — the
        // side effect attack/coherence_probe.hh times. DeferAll
        // schemes keep the request core-local until the store is safe
        // (it then upgrades via the retirement-time write access).
        if (speculative && hier_.coherenceEnabled()) {
            const SpecCoherencePolicy cp =
                th.scheme.specCoherencePolicy();
            if (cp != SpecCoherencePolicy::DeferAll) {
                inst.completeAt += hier_.specStoreUpgrade(
                    id_, inst.effAddr(), now,
                    cp == SpecCoherencePolicy::EagerUpgrade);
            }
        }
    } else {
        inst.result() = execute(inst);
        inst.completeAt = now + traits.latency;
    }

    ports_.issue(static_cast<std::uint8_t>(port), op, now,
                 inst.completeAt, inst.seq, speculative, th.tid);
    inst.state = InstState::Issued;
    th.readySet.erase(th.rob.slotOf(inst));
    th.issued.insert(th.rob.slotOf(inst));
    th.minWbAt = std::min(th.minWbAt, inst.completeAt);
    inst.issuedAt() = now;
    ++th.stats.issued;
    if (!flags.holdRsUntilRetire)
        rs_.release(inst);
    return true;
}

bool
Scheduler::issueLoad(ThreadContext &th, DynInst &inst, bool safe,
                     bool speculative, Tick now, NoiseModel *noise)
{
    inst.effAddr() = (inst.si().src1 == kNoReg ? 0
                        : inst.src1Val() * inst.si().scale) +
                   static_cast<std::uint64_t>(inst.si().imm);
    if (inst.loadPhase == LoadPhase::None)
        ++th.stats.loads; // count each load once, not per retry
    if (const DynInst *st = lsq_.forwardingStore(inst, th.rob, th.stores)) {
        inst.result() = st->result();
        inst.completeAt = now + cfg_.storeForwardLatency;
        inst.loadPhase = LoadPhase::Done;
        return true;
    }

    const SpecLoadPolicy policy =
        safe ? SpecLoadPolicy::Visible : th.scheme.specLoadPolicy();
    const Tick jitter = noise ? noise->loadJitter() : 0;
    const Addr line = lineAlign(inst.effAddr());
    const SchedFlags flags = th.scheme.schedFlags();

    // An L1 miss needs an MSHR entry: it merges into the entry for its
    // line, takes a free one, or — the advanced defense, for a
    // non-speculative load — frees its thread's youngest speculative
    // entry. Only a new entry needs the miss's ready time, a pure
    // latency peek (no bandwidth consumed) made before any cache state
    // is touched. A load that gets no entry retries when the earliest
    // entry frees.
    auto acquire_mshr = [&](bool spec_alloc) -> bool {
        if (mshr_.hasEntry(line, now))
            return true;
        if (!mshr_.full(now) ||
            (flags.preemptSpecMshr && !spec_alloc &&
             mshr_.preemptYoungestSpeculative(now, th.tid))) {
            const MemAccessResult probe = hier_.peekLatency(
                id_, inst.effAddr(), AccessType::Data);
            mshr_.allocate(line, now, now + probe.latency + jitter,
                           inst.seq, spec_alloc, th.tid);
            return true;
        }
        const Tick earliest = mshr_.earliestReady(now);
        inst.readyAt = earliest == kTickMax ? now + 1 : earliest;
        inst.loadPhase = LoadPhase::WaitMshr;
        return false;
    };

    switch (policy) {
      case SpecLoadPolicy::Visible: {
        if (!hier_.l1Probe(id_, inst.effAddr()) &&
            !acquire_mshr(speculative)) {
            return false;
        }
        // A safe load always trains the prefetcher; a speculative one
        // only under schemes whose requests leave the core.
        const MemAccessResult res = hier_.access(
            id_, inst.effAddr(), AccessType::Data, now, MemIntent::Read,
            safe || th.scheme.trainsPrefetcher());
        if (res.servedBy == ServedBy::L1)
            ++th.stats.loadL1Hits;
        inst.completeAt = now + res.latency + jitter;
        inst.result() = mem_.read(inst.effAddr());
        inst.loadPhase = LoadPhase::InFlight;
        return true;
      }

      case SpecLoadPolicy::DelayOnMiss: {
        if (hier_.l1Probe(id_, inst.effAddr())) {
            // Speculative L1 hit: serve the data, defer the
            // replacement-state update until the load is safe.
            ++th.stats.loadL1Hits;
            inst.completeAt =
                now + hier_.config().l1Latency + jitter;
            inst.result() = mem_.read(inst.effAddr());
            inst.deferredTouchPending = true;
            th.pendingVisibility.insert(th.rob.slotOf(inst));
            inst.loadPhase = LoadPhase::InFlight;
            return true;
        }
        // Speculative miss: delay until safe, then re-execute.
        inst.loadPhase = LoadPhase::WaitSafe;
        return false;
      }

      case SpecLoadPolicy::InvisibleRequest:
      case SpecLoadPolicy::InvisibleFilter: {
        if (policy == SpecLoadPolicy::InvisibleFilter &&
            th.filter.probe(line)) {
            // MuonTrap filter-cache hit: core-local, fast.
            inst.completeAt =
                now + hier_.config().l1Latency + jitter;
            inst.result() = mem_.read(inst.effAddr());
            inst.exposurePending = true;
            th.pendingVisibility.insert(th.rob.slotOf(inst));
            inst.loadPhase = LoadPhase::InFlight;
            return true;
        }
        // Invisible speculative misses still occupy MSHRs — the
        // pressure point G^D_MSHR exploits (Fig. 4), per-core and,
        // through the shared-LLC model, across cores. The core MSHR is
        // reserved before the request leaves the core: the real
        // (bandwidth-consuming) invisible request only happens once
        // the load actually goes out — a denied load must not charge
        // shared-level occupancy on every retry.
        if (!hier_.l1Probe(id_, inst.effAddr()) &&
            !acquire_mshr(true)) {
            return false;
        }
        // The invisible request leaves the core: whether it trains
        // the prefetcher is the scheme's declaration (it does for
        // InvisiSpec-style designs — the leak the PrefetchTraining
        // channel exploits).
        const MemAccessResult res = hier_.accessInvisible(
            id_, inst.effAddr(), AccessType::Data, now,
            th.scheme.trainsPrefetcher());
        if (res.servedBy == ServedBy::L1)
            ++th.stats.loadL1Hits;
        inst.completeAt = now + res.latency + jitter;
        inst.result() = mem_.read(inst.effAddr());
        inst.exposurePending = true;
        th.pendingVisibility.insert(th.rob.slotOf(inst));
        inst.loadPhase = LoadPhase::InFlight;
        if (policy == SpecLoadPolicy::InvisibleFilter)
            th.filter.fill(line, inst.seq);
        return true;
      }

      case SpecLoadPolicy::DelayAlways:
        inst.loadPhase = LoadPhase::WaitSafe;
        return false;
    }
    panic("Scheduler::issueLoad: unknown policy");
}

} // namespace specint
