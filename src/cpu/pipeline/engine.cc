/**
 * @file
 * PipelineEngine implementation: construction/validation, the run
 * loop and per-cycle orchestration. Stages run in reverse pipeline
 * order inside tick() — retire, writeback, safety (scheme exposures /
 * deferred updates), issue, dispatch, fetch — so producers wake
 * consumers with a one-cycle boundary; the cross-thread contention
 * counters close the cycle. Fast-forward (nextTransitionAt /
 * fastForwardTo) skips the cycles in which none of that can happen.
 */

#include "cpu/pipeline/engine.hh"

#include <cassert>

#include "sim/log.hh"
#include "sim/obs/metrics.hh"
#include "sim/obs/trace.hh"
#include "spec/unsafe.hh"

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
      mshr_(cfg.mshrs), arbiter_(smt.fetchPolicy, smt.numThreads),
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
PipelineEngine::setScheme(ThreadId tid, SchemePtr scheme)
{
    assert(scheme && tid < threads_.size());
    threads_[tid]->scheme = std::move(scheme);
}

Scheme &
PipelineEngine::scheme(ThreadId tid)
{
    return *threads_[tid]->scheme;
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
        tp->scheme = std::make_unique<UnsafeScheme>();
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
        reg.counterAdd(t + "stalls.port_contended",
                       s.portContendedCycles);
        reg.counterAdd(t + "stalls.mshr_contended",
                       s.mshrContendedCycles);
        reg.counterAdd(t + "stalls.rs_blocked", s.rsBlockedCycles);
        // SoA-bank usage: allocations this run and peak occupancy
        // against the bank's fixed capacity (reuse pressure).
        const Rob &rob = tp->rob;
        reg.counterAdd(t + "pool.rob.pushes", rob.pushes());
        reg.sampleAdd(t + "pool.rob.high_water",
                      static_cast<double>(rob.highWater()));
        reg.sampleAdd(t + "pool.rob.capacity",
                      static_cast<double>(rob.capacity()));
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
    // Skipping is optional — any dead cycle not skipped simply ticks
    // normally with identical results — so after a failed attempt
    // (nothing skippable: the pipeline is busy) the predicate backs
    // off for a few ticks instead of rescanning the ROB every cycle of
    // a busy stretch. Long stalls (memory misses) still collapse; at
    // most the first few cycles of a dead region are ticked.
    unsigned backoff = 0;
    while (step()) {
        if (backoff > 0) {
            --backoff;
            continue;
        }
        if (fastForward(cfg_.maxCycles) == 0)
            backoff = 3;
    }
    return finishRun();
}

// ---------------------------------------------------------------------
// Stall fast-forward
// ---------------------------------------------------------------------

Tick
PipelineEngine::nextTransitionAt() const
{
    FfProbe probe;
    return nextTransitionAt(probe);
}

Tick
PipelineEngine::portsFreeAt(const ThreadContext &th,
                            const DynInst &inst) const
{
    // Mirrors Scheduler::tryIssue. No port was issued to yet this
    // cycle, so a port is unavailable iff its non-pipelined unit is
    // busy; a denied candidate then only tries to preempt (advanced
    // defense), and otherwise sets the per-cycle memo and its thread's
    // portContended flag.
    const OpTraits &traits = opTraits(inst.op);
    const bool may_preempt =
        th.scheme->schedFlags().strictAgePriority && !traits.pipelined;
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
PipelineEngine::nextTransitionAt(FfProbe &probe) const
{
    FfGate &gate = probe.gate;
    // A timed action runs at the start of its cycle, ahead of every
    // stage; a probe it blocks counts under the first gate.
    if (actionAt_ <= now_) {
        gate = FfGate::Retire;
        return now_;
    }
    Tick next = actionAt_;
    for (const auto &tp : threads_) {
        const ThreadContext &th = *tp;

        // Retire: the head retires the cycle it is found written back.
        if (!th.rob.empty() &&
            th.rob.head().state == InstState::WrittenBack) {
            gate = FfGate::Retire;
            return now_;
        }

        const SafePoint sp = th.scheme->safePoint();
        // The running shadow state is folded into this single walk
        // (the shadowStep recurrence): each instruction sees the
        // shadows of strictly older entries.
        ShadowInfo running;
        for (const auto &inst : th.rob) {
            const ShadowInfo sh = running;
            shadowStep(running, inst);

            if (inst.state == InstState::Issued) {
                // Writeback (and branch resolution / squash) fires the
                // cycle completeAt is reached; a completed instruction
                // that lost CDB arbitration re-arbitrates every cycle.
                if (inst.completeAt <= now_) {
                    gate = FfGate::Writeback;
                    return now_;
                }
                next = std::min(next, inst.completeAt);
                continue;
            }

            // Safety stage: an executed load with a pending visibility
            // op transitions the cycle it becomes safe. If it is not
            // safe now, it can only become safe after another captured
            // event (branch resolution, load completion, retire).
            if (inst.isLoad() && inst.executed() &&
                (inst.exposurePending || inst.deferredTouchPending) &&
                th.isSafe(inst, sh, sp)) {
                gate = FfGate::Safety;
                return now_;
            }

            if (inst.state != InstState::Dispatched ||
                !inst.src1Ready || !inst.src2Ready) {
                continue;
            }

            // Statically blocked candidates: the issue stage skips them
            // with no state change, and they can only unblock after an
            // event already captured above. Mirror its gates exactly.
            if (inst.loadPhase == LoadPhase::WaitSafe &&
                !th.isSafe(inst, sh, sp)) {
                continue;
            }
            if (inst.isFence() &&
                th.rob.head().seq != inst.seq) {
                continue;
            }
            IssueContext ctx;
            ctx.olderUnresolvedBranch = sh.olderUnresolvedBranch;
            ctx.olderIncompleteLoad = sh.olderIncompleteLoad;
            ctx.isLoad = inst.isLoad();
            ctx.isBranch = inst.isBranch();
            if (!th.scheme->mayIssue(ctx))
                continue;

            // An issue *attempt* is a transition even when it fails:
            // it can preempt an EU or update a blocked load's retry
            // time. The exception is a port denial that cannot
            // preempt: it repeats unchanged, setting only the thread's
            // portContended flag, until one of the busy ports frees.
            // The port holders cannot change without a transition, so
            // the flag is constant over the span.
            const Tick t = std::max(inst.readyAt, inst.retryAt);
            if (t > now_) {
                next = std::min(next, t);
                continue;
            }
            const Tick free_at = portsFreeAt(th, inst);
            if (free_at <= now_) {
                gate = FfGate::Issue;
                return now_;
            }
            next = std::min(next, free_at);
            if (ports_.opContendedByOther(inst.op, th.tid, now_))
                probe.portContended |= 1u << th.tid;
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
    // The per-cycle stats that accrue during dead cycles; their
    // conditions cannot change while no stage transitions. The only
    // issue attempts are port denials that cannot preempt, whose
    // portContended flag the probe recorded; no load requests an MSHR.
    for (const auto &tp : threads_) {
        if (!tp->frontend.queueEmpty() && rs_.full(tp->tid))
            tp->stats.rsBlockedCycles += skipped;
        if (ffPortContended_ & (1u << tp->tid))
            tp->stats.portContendedCycles += skipped;
    }
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
    FfProbe probe;
    const Tick next = nextTransitionAt(probe);
    if (next <= now_ && obs::metricsEnabled())
        ++ffBlocked_[static_cast<unsigned>(probe.gate)];
    ffProbeAt_ = now_;
    ffPortContended_ = probe.portContended;
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
    for (auto &tp : threads_)
        tp->portContended = tp->mshrContended = false;
    commit_.retire(threads_, now_);
    commit_.writeback(threads_, now_);
    sched_.safety(threads_, now_);
    sched_.issue(threads_, now_, noise_);
    front_.dispatch(threads_, now_);
    front_.fetch(threads_, now_);
    for (auto &tp : threads_) {
        tp->stats.portContendedCycles += tp->portContended;
        tp->stats.mshrContendedCycles += tp->mshrContended;
    }
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
    for (const auto &tp : threads_) {
        const ThreadContext &th = *tp;
        auto who = [&th] {
            return "thread " + std::to_string(th.tid) + ": ";
        };

        // One pass over the live entries: each slot's ready bit must
        // match the candidate condition, and the counters a recount.
        std::size_t candidates = 0;
        unsigned branches = 0, loads = 0, stores = 0, visibility = 0;
        for (const DynInst &inst : th.rob) {
            const bool cand = inst.state == InstState::Dispatched &&
                              inst.src1Ready && inst.src2Ready;
            if (th.readySet.contains(th.rob.slotOf(inst)) != cand) {
                return who() + "ready bit of seq " +
                       std::to_string(inst.seq) +
                       (cand ? " clear for a candidate"
                             : " set for a non-candidate");
            }
            candidates += cand;
            if (inst.isBranch() && !inst.resolved)
                ++branches;
            if (inst.isLoad() && !inst.executed())
                ++loads;
            if (inst.isStore() && !inst.executed())
                ++stores;
            visibility += inst.exposurePending;
            visibility += inst.deferredTouchPending;
        }
        // Every live slot matched, so any surplus member is a slot no
        // entry holds.
        if (th.readySet.count() != candidates) {
            return who() + "ready set has " +
                   std::to_string(th.readySet.count() - candidates) +
                   " member(s) in dead slots";
        }
        auto mismatch = [&](const char *what, unsigned kept,
                            unsigned counted) {
            return who() + what + " is " + std::to_string(kept) +
                   ", ROB recount " + std::to_string(counted);
        };
        if (th.numUnresolvedBranches != branches)
            return mismatch("numUnresolvedBranches",
                            th.numUnresolvedBranches, branches);
        if (th.numIncompleteLoads != loads)
            return mismatch("numIncompleteLoads", th.numIncompleteLoads,
                            loads);
        if (th.numIncompleteStores != stores)
            return mismatch("numIncompleteStores", th.numIncompleteStores,
                            stores);
        if (th.pendingVisibility != visibility)
            return mismatch("pendingVisibility", th.pendingVisibility,
                            visibility);
    }
    return {};
}

} // namespace specint
