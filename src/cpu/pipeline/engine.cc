/**
 * @file
 * PipelineEngine implementation: construction/validation, the run
 * loop and per-cycle orchestration. Stages run in reverse pipeline
 * order inside tick() — retire, writeback, safety (scheme exposures /
 * deferred updates), issue, dispatch, fetch — so producers wake
 * consumers with a one-cycle boundary; the sibling-occupancy integrals
 * close the cycle. Fast-forward (nextTransitionAt / fastForwardTo)
 * skips the cycles in which none of that can happen.
 */

#include "cpu/pipeline/engine.hh"

#include <cassert>

#include "sim/log.hh"
#include "sim/obs/metrics.hh"
#include "sim/obs/trace.hh"

namespace specint
{

PipelineEngine::PipelineEngine(CoreConfig cfg, SmtConfig smt, CoreId id,
                               Hierarchy &hier, MainMemory &mem,
                               std::string name,
                               std::string config_context)
    : cfg_(cfg), smt_(smt), id_(id), hier_(&hier), mem_(&mem),
      name_(std::move(name)),
      rs_(cfg.rsSize, smt.numThreads, smt.rsPolicy),
      lsq_(cfg.lqSize, cfg.sqSize, smt.numThreads, smt.lqPolicy,
           smt.sqPolicy),
      mshr_(cfg.mshrs), arbiter_(smt.fetchPolicy),
      commit_(cfg_, id_, rs_, lsq_, ports_, mshr_, hier, mem),
      sched_(cfg_, smt_, id_, rs_, lsq_, ports_, mshr_, hier, mem),
      front_(cfg_, smt_, id_, rs_, lsq_, hier, arbiter_)
{
    std::string err = cfg_.validate();
    if (err.empty())
        err = validateSmtConfig(smt_, cfg_);
    if (!err.empty()) {
        fatal((config_context.empty() ? name_ : config_context) + ": " +
              err);
    }
    for (unsigned t = 0; t < smt_.numThreads; ++t) {
        threads_.push_back(std::make_unique<ThreadContext>(
            cfg_, static_cast<ThreadId>(t)));
    }
}

PipelineEngine::~PipelineEngine() = default;

void
PipelineEngine::setScheme(ThreadId tid, Scheme scheme)
{
    assert(tid < threads_.size());
    threads_[tid]->scheme = scheme;
}

BranchPredictor &
PipelineEngine::predictor(ThreadId tid)
{
    return threads_[tid]->predictor;
}

const std::vector<InstTraceEntry> &
PipelineEngine::trace(ThreadId tid) const
{
    return threads_[tid]->trace;
}

const InstTraceEntry *
PipelineEngine::traceEntry(ThreadId tid, const std::string &label) const
{
    for (const auto &e : threads_[tid]->trace)
        if (e.label == label)
            return &e;
    return nullptr;
}

Tick
PipelineEngine::completeTime(ThreadId tid, const std::string &label) const
{
    const InstTraceEntry *e = traceEntry(tid, label);
    return e ? e->completeAt : kTickMax;
}

std::uint64_t
PipelineEngine::archReg(ThreadId tid, RegId reg) const
{
    return threads_[tid]->archRegs[reg];
}

// ---------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------

void
PipelineEngine::scheduleAction(Tick at, TimedAction fn)
{
    actionAt_ = at;
    action_ = std::move(fn);
}

void
PipelineEngine::resetForRun()
{
    noise_ = nullptr;
    scheduleAction(kTickMax, nullptr);
    // The cached trace track is only valid for one tracer arming; a
    // reused engine re-interns on first use.
    stallTraceTrack_ = 0;
    for (auto &tp : threads_) {
        tp->predictor.reset();
        // ThreadContext::resetRun keeps the installed scheme (a run
        // boundary is not a trial boundary); a trial boundary must
        // restore the constructed default.
        tp->scheme = Scheme();
    }
}

void
PipelineEngine::beginRun(const std::vector<const Program *> &progs)
{
    assert(progs.size() == threads_.size());
    for ([[maybe_unused]] const Program *p : progs)
        assert(p && !p->empty());
    now_ = 0;
    ffProbes_ = ffSkips_ = ffSkippedCycles_ = 0;
    ffBlocked_.fill(0);
    ffProbeAt_ = kTickMax;
    rs_.clear();
    lsq_.clear();
    ports_.reset();
    mshr_.reset();
    arbiter_.reset();
    front_.reset();
    for (unsigned t = 0; t < threads_.size(); ++t)
        threads_[t]->resetRun(progs[t]);
}

bool
PipelineEngine::allHalted() const
{
    for (const auto &th : threads_)
        if (!th->haltRetired)
            return false;
    return true;
}

bool
PipelineEngine::step()
{
    if (allHalted() || now_ >= cfg_.maxCycles)
        return false;
    tick();
    return true;
}

EngineRunResult
PipelineEngine::finishRun()
{
    scheduleAction(kTickMax, nullptr);
    EngineRunResult res;
    res.cycles = now_;
    res.finished = allHalted();
    if (!res.finished) {
        warn(name_ + "::run hit maxCycles (" + std::to_string(now_) +
             ") before every thread's Halt retired");
    }
    for (auto &tp : threads_) {
        tp->stats.finished = tp->haltRetired;
        if (!tp->haltRetired)
            tp->stats.cycles = now_;
        res.threads.push_back(tp->stats);
    }
    if (obs::metricsEnabled())
        publishMetrics();
    return res;
}

void
PipelineEngine::publishMetrics()
{
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    const std::string core = "core" + std::to_string(id_) + ".";
    reg.counterAdd(core + "pipeline.runs", 1);
    reg.sampleAdd(core + "pipeline.cycles",
                  static_cast<double>(now_));
    for (const auto &tp : threads_) {
        const ThreadStats &s = tp->stats;
        const std::string t =
            core + "t" + std::to_string(tp->tid) + ".";
        reg.counterAdd(t + "retired", s.retired);
        reg.counterAdd(t + "issued", s.issued);
        reg.counterAdd(t + "squashes", s.squashes);
        reg.counterAdd(t + "branches", s.branches);
        reg.counterAdd(t + "mispredicts", s.mispredicts);
        reg.counterAdd(t + "loads", s.loads);
        reg.counterAdd(t + "load_l1_hits", s.loadL1Hits);
        reg.counterAdd(t + "fetch_grants", s.fetchGrants);
    }
    reg.counterAdd(core + "ff.probes", ffProbes_);
    reg.counterAdd(core + "ff.skips", ffSkips_);
    reg.counterAdd(core + "ff.skipped_cycles", ffSkippedCycles_);
    static constexpr const char *kGateNames[kNumFfGates] = {
        "retire", "writeback", "safety", "issue", "dispatch", "fetch"};
    for (unsigned g = 0; g < kNumFfGates; ++g)
        reg.counterAdd(core + "ff.blocked." + kGateNames[g], ffBlocked_[g]);
    // The Hierarchy is shared by every engine of a System; publishing
    // from core 0 only keeps the shared counters single-sourced.
    if (id_ == 0)
        hier_->publishMetrics();
}

EngineRunResult
PipelineEngine::run(const std::vector<const Program *> &progs)
{
    beginRun(progs);
    // Probe for a dead span after every tick, as System::run() does; a
    // busy cycle pays one probe that finds a transition due.
    while (step())
        fastForward(cfg_.maxCycles);
    return finishRun();
}

// ---------------------------------------------------------------------
// Stall fast-forward
// ---------------------------------------------------------------------

Tick
PipelineEngine::nextTransitionAt() const
{
    FfGate gate = FfGate::Retire;
    return nextTransitionAt(gate);
}

Tick
PipelineEngine::portsFreeAt(const ThreadContext &th,
                            const DynInst &inst) const
{
    // Mirrors Scheduler::tryIssue. No port was issued to yet this
    // cycle, so a port is unavailable iff its non-pipelined unit is
    // busy; a denied candidate then only tries to preempt (advanced
    // defense), and otherwise sets the per-cycle memo.
    const OpTraits &traits = opTraits(inst.op);
    const bool may_preempt =
        th.scheme.schedFlags().strictAgePriority && !traits.pipelined;
    Tick free_at = kTickMax;
    for (std::uint8_t p : traits.ports) {
        if (!ports_.busy(p, now_) ||
            (may_preempt && ports_.preemptible(p, inst.seq, th.tid))) {
            return now_;
        }
        free_at = std::min(free_at, ports_.busyUntil(p));
    }
    return free_at;
}

Tick
PipelineEngine::nextTransitionAt(FfGate &gate) const
{
    // A timed action runs at the start of its cycle, ahead of every
    // stage; a probe it blocks counts under the first gate.
    if (actionAt_ <= now_) {
        gate = FfGate::Retire;
        return now_;
    }
    Tick next = actionAt_;
    for (const auto &tp : threads_) {
        const ThreadContext &th = *tp;

        // Each stage's gate in tick order; the window stages visit only
        // their own per-slot set.
        // Retire: the head retires the cycle it is found written back.
        if (!th.rob.empty() &&
            th.rob.head().state == InstState::WrittenBack) {
            gate = FfGate::Retire;
            return now_;
        }

        // Writeback (and branch resolution / squash) fires the cycle an
        // Issued entry's completeAt is reached; a completed entry that
        // lost CDB arbitration re-arbitrates every cycle.
        const std::size_t head = th.rob.headSlot();
        for (std::size_t age = th.issued.nextByAge(head, 0);
             age != SlotSet::kNone;
             age = th.issued.nextByAge(head, age + 1)) {
            const Tick t = th.rob.at(age)->completeAt;
            if (t <= now_) {
                gate = FfGate::Writeback;
                return now_;
            }
            next = std::min(next, t);
        }

        // Safety: a written-back load with a pending visibility op
        // transitions the cycle it is inside the safe prefix. Outside
        // it, it can only become safe after another captured event
        // (branch resolution, load completion, retire).
        const Frontiers f = th.frontiers();
        const std::size_t safe = safeUpTo(f, th.scheme.safePoint());
        for (std::size_t age = th.pendingVisibility.nextByAge(head, 0);
             age != SlotSet::kNone && age <= safe;
             age = th.pendingVisibility.nextByAge(head, age + 1)) {
            if (th.rob.at(age)->writtenBack()) {
                gate = FfGate::Safety;
                return now_;
            }
        }

        // Issue: the ready set's candidates. After the first
        // non-pipelined candidate found waiting for port 0, the rest of
        // the thread's nonPipelined set is skipped, as the issue stage
        // skips it: none of them can preempt (preemptibility is
        // monotone in age) or issue while the port is busy, so each
        // would repeat the same denial. One whose readyAt falls inside
        // the busy span would only be denied from then on, so leaving
        // its readyAt out of the bound is exact too; the span cannot
        // end early without a squash, which is a writeback bounded
        // above.
        const SlotSet *skip = nullptr;
        for (std::size_t age = th.readySet.nextByAge(head, 0);
             age != SlotSet::kNone;
             age = th.readySet.nextByAge(head, age + 1, skip)) {
            const DynInst &inst = *th.rob.at(age);
            // Gated candidates: the issue stage skips them with no
            // state change, and they can only unblock after an event
            // already captured above.
            if (th.issueGated(inst, age, f, safe))
                continue;

            // An issue *attempt* is a transition even when it fails:
            // it can preempt an EU or wait on an MSHR. The exceptions
            // are a load waiting on an older store that is offered a
            // port (it changes nothing), and a port denial that cannot
            // preempt: it repeats unchanged until one of the busy ports
            // frees, and the port holders cannot change without a
            // transition.
            if (inst.readyAt > now_) {
                next = std::min(next, inst.readyAt);
                continue;
            }
            const Tick free_at = portsFreeAt(th, inst);
            if (free_at <= now_) {
                if (waitsOnStore(inst, age, f))
                    continue;
                gate = FfGate::Issue;
                return now_;
            }
            next = std::min(next, free_at);
            if (!opTraits(inst.op).pipelined)
                skip = &th.nonPipelined;
        }

        // Dispatch: possible iff the front of the decode queue can
        // enter the window right now. Every input (queue, ROB/RS/LSQ
        // occupancy) only changes through captured events.
        if (!th.frontend.queueEmpty() &&
            !front_.robFull(th, threads_) && !rs_.full(th.tid)) {
            const FetchedInst &fi = th.frontend.front();
            const StaticInst &si = th.prog->at(fi.pc);
            if (!si.isMem() || lsq_.canAllocate(si, th.tid)) {
                gate = FfGate::Dispatch;
                return now_;
            }
        }

        // Fetch: a grantable thread mutates the arbiter, the queue and
        // the I-cache. A frontend waiting out its busy timer becomes
        // fetchable at busyUntil (unless the queue is full, in which
        // case the unblocking dispatch is its own transition).
        if (th.frontend.canFetch(now_)) {
            gate = FfGate::Fetch;
            return now_;
        }
        if (!th.frontend.halted() && !th.frontend.queueFull())
            next = std::min(next, th.frontend.busyUntil());
    }
    return next;
}

void
PipelineEngine::fastForwardTo(Tick target)
{
    target = std::min(target, cfg_.maxCycles);
    if (target <= now_)
        return;
    assert(ffProbeAt_ == now_ && "fastForwardTo without a probe");
    const Tick skipped = target - now_;
    ++ffSkips_;
    ffSkippedCycles_ += skipped;
    // The one statistic that accrues during dead cycles: what siblings
    // hold cannot change while no stage transitions.
    accrueSiblingHoldings(target);
    // The skipped region is by construction transition-free, so the
    // trace records it as one arithmetic stall span instead of the
    // per-cycle events the naive loop would (not) have produced.
    if (obs::tracingEnabled()) {
        if (stallTraceTrack_ == 0) {
            stallTraceTrack_ = obs::EventTracer::global().track(
                "core" + std::to_string(id_) + ".stall");
        }
        obs::EventTracer::global().complete(
            stallTraceTrack_, "stall", "fastforward", now_, skipped,
            "skipped", skipped);
    }
    now_ = target;
}

Tick
PipelineEngine::probeTransition()
{
    ++ffProbes_;
    FfGate gate = FfGate::Retire;
    const Tick next = nextTransitionAt(gate);
    if (next <= now_ && obs::metricsEnabled())
        ++ffBlocked_[static_cast<unsigned>(gate)];
    ffProbeAt_ = now_;
    return next;
}

Tick
PipelineEngine::fastForward(Tick bound)
{
    // Never skip past the end of the run: with every Halt retired
    // nothing is in flight, and jumping to maxCycles would corrupt the
    // reported cycle count.
    if (allHalted() || now_ >= cfg_.maxCycles)
        return 0;
    const Tick before = now_;
    const Tick next = probeTransition();
    if (next > now_)
        fastForwardTo(std::min(next, bound));
    return now_ - before;
}

void
PipelineEngine::tick()
{
    if (actionAt_ <= now_) {
        // One-shot: clear it first, so the action may schedule the
        // next one.
        const TimedAction fn = std::move(action_);
        scheduleAction(kTickMax, nullptr);
        fn();
    }
    commit_.retire(threads_, now_);
    commit_.writeback(threads_, now_);
    sched_.safety(threads_, now_);
    sched_.issue(threads_, now_, noise_);
    front_.dispatch(threads_, now_);
    front_.fetch(threads_, now_);
    accrueSiblingHoldings(now_ + 1);
    ++now_;
}

void
PipelineEngine::accrueSiblingHoldings(Tick to)
{
    if (threads_.size() == 1)
        return;
    std::array<Tick, kMaxSmtThreads> mshr_held{};
    const Tick mshr_total = mshr_.heldCycles(now_, to, mshr_held);
    const Tick busy_until = ports_.busyUntil(0);
    const Tick port0_held =
        ports_.holder(0) != kSeqNumInvalid && busy_until > now_
            ? std::min(busy_until, to) - now_
            : 0;
    for (auto &tp : threads_) {
        ThreadStats &s = tp->stats;
        if (ports_.holderTid(0) != tp->tid)
            s.siblingPort0Cycles += port0_held;
        s.siblingMshrCycles += mshr_total - mshr_held[tp->tid];
    }
}

std::string
PipelineEngine::checkInvariants() const
{
    unsigned rs_held_total = 0;
    for (const auto &tp : threads_) {
        const ThreadContext &th = *tp;

        // Rebuild every per-slot set, and count the RS slots held, from
        // the ROB in one pass.
        const std::size_t slots = th.rob.capacity();
        SlotSet ready(slots), issued(slots), branches(slots), loads(slots),
            stores(slots), visibility(slots), all_stores(slots),
            non_pipelined(slots);
        unsigned rs_held = 0;
        for (const DynInst &inst : th.rob) {
            const std::size_t s = th.rob.slotOf(inst);
            rs_held += inst.inRs;
            if (inst.state == InstState::Dispatched && inst.src1Ready &&
                inst.src2Ready)
                ready.insert(s);
            if (inst.state == InstState::Issued)
                issued.insert(s);
            if (inst.isBranch() && !inst.writtenBack())
                branches.insert(s);
            if (inst.isLoad() && !inst.writtenBack())
                loads.insert(s);
            if (inst.isStore() && !inst.writtenBack())
                stores.insert(s);
            if (inst.exposurePending || inst.deferredTouchPending)
                visibility.insert(s);
            if (inst.isStore())
                all_stores.insert(s);
            if (!opTraits(inst.op).pipelined)
                non_pipelined.insert(s);
        }

        // Compare word for word; only a mismatch pays for naming it.
        const struct
        {
            const char *name;
            const SlotSet &kept;
            const SlotSet &rebuilt;
        } sets[] = {
            {"readySet", th.readySet, ready},
            {"issued", th.issued, issued},
            {"unresolvedBranches", th.unresolvedBranches, branches},
            {"incompleteLoads", th.incompleteLoads, loads},
            {"incompleteStores", th.incompleteStores, stores},
            {"pendingVisibility", th.pendingVisibility, visibility},
            {"stores", th.stores, all_stores},
            {"nonPipelined", th.nonPipelined, non_pipelined},
        };
        for (const auto &set : sets) {
            if (set.kept == set.rebuilt)
                continue;
            const std::string where = "thread " + std::to_string(th.tid) +
                                      ": " + set.name;
            for (const DynInst &inst : th.rob) {
                const std::size_t s = th.rob.slotOf(inst);
                if (set.kept.contains(s) != set.rebuilt.contains(s)) {
                    return where +
                           (set.kept.contains(s) ? " holds" : " misses") +
                           " seq " + std::to_string(inst.seq);
                }
            }
            return where + " has a member in a dead slot";
        }

        // The RS share equals the entries holding an RS slot (under
        // holdRsUntilRetire, issued ones too, until they retire).
        if (rs_.occupancy(th.tid) != rs_held) {
            return "thread " + std::to_string(th.tid) + ": RS share " +
                   std::to_string(rs_.occupancy(th.tid)) + " but " +
                   std::to_string(rs_held) +
                   " entries hold an RS slot";
        }
        rs_held_total += rs_held;
    }
    if (rs_.occupancy() != rs_held_total) {
        return "RS occupancy " + std::to_string(rs_.occupancy()) +
               " but the threads' shares sum to " +
               std::to_string(rs_held_total);
    }
    return {};
}

} // namespace specint
