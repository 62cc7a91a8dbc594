/**
 * @file
 * Trial harness implementation: memory/cache/predictor state
 * preparation, victim execution with optional attacker reference-access
 * injection, and ordering/presence verdict extraction.
 */

#include "attack/sender.hh"

#include <cassert>
#include <cstdlib>

#include "sim/log.hh"

namespace specint
{

int
TrialResult::orderSignal() const
{
    if (posFirst == SIZE_MAX || posSecond == SIZE_MAX)
        return -1;
    return posFirst < posSecond ? 0 : 1;
}

Addr
TrialHarness::monitorFirst(const SenderProgram &sp) const
{
    switch (sp.params.ordering) {
      case OrderingKind::VdVd:
      case OrderingKind::VdAd:
        return sp.addrA;
      case OrderingKind::VdVi:
      case OrderingKind::ViAd:
        // The shifting access is the post-squash I-fetch.
        return sp.icacheTarget;
      case OrderingKind::Presence:
        return sp.icacheTarget;
    }
    return kAddrInvalid;
}

void
TrialHarness::prepare(const SenderProgram &sp, unsigned secret,
                      NoiseModel *noise, bool flush_monitored)
{
    // Memory image.
    for (const auto &[addr, value] : sp.memInit)
        mem_->write(addr, value);
    mem_->write(sp.secretSlot, secret);

    // Flushes.
    for (Addr a : sp.flushLines)
        hier_->flushLine(a);
    if (flush_monitored) {
        for (Addr a : {sp.addrA, sp.addrB, sp.refAddr})
            if (a != kAddrInvalid)
                hier_->flushLine(a);
        // icacheTarget is already in flushLines.
    }

    // LLC-resident-only lines (gadget working set): flush private
    // copies, then pull into the LLC from the attacker side.
    for (Addr a : sp.llcWarmLines) {
        hier_->flushLine(a);
        hier_->accessDirect(attacker_->id(), a, 0);
    }

    // Victim-private warm lines (two passes to settle replacement).
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (Addr a : sp.warmLines)
            hier_->access(victim_->id(), a, AccessType::Data, 0);
        for (Addr a : sp.warmCodeLines)
            hier_->access(victim_->id(), a, AccessType::Instr, 0);
    }

    // Branch mis-training (may fail under noise): the attack needs the
    // branch predicted *taken* while the architectural outcome is
    // not-taken.
    const bool fail = noise && noise->mistrainFails();
    victim_->predictor().train(sp.branchPc, !fail, 6);

    hier_->clearLlcTrace();
}

TrialResult
TrialHarness::run(const SenderProgram &sp, Tick ref_time)
{
    if (ref_time != 0 && sp.refAddr != kAddrInvalid) {
        const Addr ref = sp.refAddr;
        AttackerAgent *atk = attacker_;
        Hierarchy *hier = hier_;
        victim_->scheduleAction(ref_time, [=] {
            hier->accessDirect(atk->id(), ref, ref_time);
        });
    }

    const CoreStats stats = victim_->run(sp.prog);

    TrialResult res;
    res.finished = stats.finished;
    res.cycles = stats.cycles;

    const Addr first = monitorFirst(sp);
    const Addr second = sp.monitorSecond();
    const auto &trace = hier_->llcTrace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (res.posFirst == SIZE_MAX && trace[i].lineAddr == first) {
            res.posFirst = i;
            res.timeFirst = trace[i].when;
        }
        if (second != kAddrInvalid && res.posSecond == SIZE_MAX &&
            trace[i].lineAddr == second) {
            res.posSecond = i;
        }
    }
    if (sp.icacheTarget != kAddrInvalid)
        res.targetPresent = hier_->llcContains(sp.icacheTarget);
    return res;
}

Tick
TrialHarness::calibrateRefTime(const SenderProgram &sp)
{
    Tick t[2] = {kTickMax, kTickMax};
    for (unsigned secret = 0; secret < 2; ++secret) {
        prepare(sp, secret);
        const TrialResult r = run(sp);
        t[secret] = r.timeFirst;
    }
    if (t[0] == kTickMax || t[1] == kTickMax)
        return 0;
    const Tick lo = std::min(t[0], t[1]);
    const Tick hi = std::max(t[0], t[1]);
    if (hi - lo < 4)
        return 0; // no exploitable secret-dependent shift
    return lo + (hi - lo) / 2;
}

} // namespace specint
