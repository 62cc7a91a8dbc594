/**
 * @file
 * The scheme table: one row of declared policies per SchemeKind, each
 * with the invariant its scheme promises, plus the §5.4 rule
 * ablation's rows, the SchemeKind enumerations (allSchemes/
 * attackedSchemes) and MuonTrap's filter cache.
 */

#include "spec/scheme.hh"

#include <algorithm>

#include "sim/log.hh"

namespace specint
{

Scheme::Scheme() : Scheme(makeScheme(SchemeKind::Unsafe)) {}

Scheme::Scheme(const char *name, SafePoint safe_point, SpecLoadPolicy load,
               SpecCoherencePolicy coherence, IssueFence fence,
               bool protects_ifetch, bool trains_prefetcher,
               SchedFlags sched)
    : name_(name), safePoint_(safe_point), specLoad_(load),
      specCoherence_(coherence), fence_(fence),
      protectsIFetch_(protects_ifetch),
      trainsPrefetcher_(trains_prefetcher), sched_(sched)
{}

Scheme
makeScheme(SchemeKind kind)
{
    // Each row: name, safe point, unsafe-load policy, speculative-store
    // coherence policy, issue fence, I-fetch protection, prefetcher
    // training, scheduler rules.
    switch (kind) {
      case SchemeKind::Unsafe:
        // Baseline: no protection. Speculative loads execute visibly,
        // exactly like a conventional OoO processor — the configuration
        // classic Spectre v1 leaks on — and stores upgrade to M the
        // moment they issue, speculative or not.
        return {"Unsafe", SafePoint::Always, SpecLoadPolicy::Visible,
                SpecCoherencePolicy::EagerUpgrade, IssueFence::None,
                /*protects_ifetch=*/false, /*trains_prefetcher=*/true,
                {}};

      // Delay-on-Miss (Sakalis et al., ISCA'19) — paper §2.2.
      // Speculative L1 hits execute and forward their results with the
      // replacement-state update deferred until the load is safe;
      // speculative L1 misses are delayed outright and re-executed at
      // the safe point. Non-TSO: multiple unprotected loads can be in
      // flight (vulnerable to VD-VD reordering); TSO: loads also wait
      // for older loads, so at most one unprotected load executes. The
      // I-cache is not protected (§3.3.1, Table 1: G^I_RS via VI-AD).
      // No speculative request — RFO included — leaves the core, and
      // the prefetcher only ever sees the architectural stream.
      //
      // Invariant: no speculative load ever changes cache state — hits
      // defer their replacement update and misses do not execute —
      // until the load reaches the scheme's safe point (non-TSO: older
      // branches resolved and older memory addresses known; TSO:
      // additionally older loads complete).
      case SchemeKind::DomNonTso:
        return {"DoM (non-TSO)", SafePoint::BranchesResolved,
                SpecLoadPolicy::DelayOnMiss, SpecCoherencePolicy::DeferAll,
                IssueFence::None, /*protects_ifetch=*/false,
                /*trains_prefetcher=*/false, {}};
      case SchemeKind::DomTso:
        return {"DoM (TSO)", SafePoint::TSO, SpecLoadPolicy::DelayOnMiss,
                SpecCoherencePolicy::DeferAll, IssueFence::None,
                /*protects_ifetch=*/false, /*trains_prefetcher=*/false,
                {}};

      // InvisiSpec (Yan et al., MICRO'18) — paper §2.2. Speculative
      // loads issue *invisible* requests: data is brought to the core
      // without changing cache state at any level, and an "exposure"
      // access makes the fill visible once the load is safe (Spectre
      // mode: older branches resolved; Futuristic: ROB head). Invisible
      // L1 misses still allocate MSHRs — the hook G^D_MSHR exploits —
      // and still train the prefetcher below L1. The requester's own
      // upgrade is deferred, but the RFO's invalidations go out when
      // the store issues: the "request vs state" gap. Instruction
      // fetches are not protected (Table 1).
      //
      // Invariant: a speculative load changes no cache state at any
      // level and its one visible (exposure) access happens only once
      // the load is safe. MSHR occupancy is NOT part of the invariant,
      // which is the leak.
      case SchemeKind::InvisiSpecSpectre:
        return {"InvisiSpec (Spectre)", SafePoint::BranchesResolved,
                SpecLoadPolicy::InvisibleRequest,
                SpecCoherencePolicy::DeferUpgrade, IssueFence::None,
                /*protects_ifetch=*/false, /*trains_prefetcher=*/true,
                {}};
      case SchemeKind::InvisiSpecFuturistic:
        return {"InvisiSpec (Futuristic)", SafePoint::RobHead,
                SpecLoadPolicy::InvisibleRequest,
                SpecCoherencePolicy::DeferUpgrade, IssueFence::None,
                /*protects_ifetch=*/false, /*trains_prefetcher=*/true,
                {}};

      // SafeSpec (Khasawneh et al., DAC'19) — paper §2.2. Mechanically
      // InvisiSpec in this model (shadow structures, invisible
      // requests, commit when safe), but it shadows the I-cache too, so
      // speculative instruction fetches are invisible and it is not
      // vulnerable to G^I_RS/VI-AD (Table 1). Wait-for-branch (WFB) and
      // wait-for-commit (WFC) modes. A squash does not recall the RFO's
      // remote invalidations.
      //
      // Invariant: speculative loads AND speculative instruction
      // fetches change no cache state at any level until the safe point
      // (WFB: older branches resolved; WFC: ROB head), when the shadow
      // state is committed by a visible exposure access.
      case SchemeKind::SafeSpecWfb:
        return {"SafeSpec (WFB)", SafePoint::BranchesResolved,
                SpecLoadPolicy::InvisibleRequest,
                SpecCoherencePolicy::DeferUpgrade, IssueFence::None,
                /*protects_ifetch=*/true, /*trains_prefetcher=*/true, {}};
      case SchemeKind::SafeSpecWfc:
        return {"SafeSpec (WFC)", SafePoint::RobHead,
                SpecLoadPolicy::InvisibleRequest,
                SpecCoherencePolicy::DeferUpgrade, IssueFence::None,
                /*protects_ifetch=*/true, /*trains_prefetcher=*/true, {}};

      // MuonTrap (Ainsworth & Jones, ISCA'20) — paper §2.2. Speculative
      // loads fill a small core-private filter cache (L0, FilterCache)
      // instead of the main hierarchy; on commit the line is made
      // visible, and on squash the speculatively filled lines are
      // invalidated. Speculative misses still issue memory requests
      // (occupying MSHRs and training the prefetcher), so MuonTrap is
      // vulnerable to G^D_MSHR (Table 1); a store's ownership request
      // still invalidates remote sharers. It captures speculative
      // instruction-side state too, so the I-cache channel of G^I_RS
      // is closed.
      //
      // Invariant: speculatively fetched lines (data and instruction)
      // live only in the core-private filter cache until commit; a
      // squash invalidates them, so the shared hierarchy never observes
      // wrong-path fills. Memory-request issue (and hence MSHR
      // occupancy) is NOT covered by the invariant, which is the leak.
      case SchemeKind::MuonTrap:
        return {"MuonTrap", SafePoint::RobHead,
                SpecLoadPolicy::InvisibleFilter,
                SpecCoherencePolicy::DeferUpgrade, IssueFence::None,
                /*protects_ifetch=*/true, /*trains_prefetcher=*/true, {}};

      // Conditional Speculation (Li et al., HPCA'19) — paper §2.2.
      // "Suspect" speculative loads — cache misses — are delayed; hits
      // proceed with their state changes deferred. Modelled as DoM
      // mechanics with a commit-time (ROB head) safe point, the §3.3.1
      // classification: a design that "unprotects a load only when it
      // becomes the oldest load or the oldest instruction in the ROB",
      // immune to victim-victim reordering but still exposed to the
      // attacker-reference (VD-AD) ordering attack.
      //
      // Invariant: at most one unprotected speculative load is in
      // flight — a load executes visibly only when it is the oldest
      // instruction in the ROB; younger hits proceed with deferred
      // replacement updates and younger misses wait.
      case SchemeKind::ConditionalSpec:
        return {"Conditional Spec.", SafePoint::RobHead,
                SpecLoadPolicy::DelayOnMiss, SpecCoherencePolicy::DeferAll,
                IssueFence::None, /*protects_ifetch=*/false,
                /*trains_prefetcher=*/false, {}};

      // The paper's basic defense (§5.2): a hardware-inserted fence
      // after every instruction that may cause a squash. Younger
      // instructions may still be fetched and dispatched, but may not
      // *issue* until the fence source is resolved: the Spectre model
      // fences after branches, the Futuristic model also after loads
      // (memory consistency/faults). Loads only issue once that gate
      // passes, when they are non-speculative, so the safe point
      // matches it and they execute visibly. This achieves *ideal
      // invisible speculation* (§5.1) at the cost Fig. 12 reports. The
      // declared coherence policy is moot — no speculative store ever
      // issues — but closed.
      //
      // Invariant: no instruction issues while an older squash-capable
      // instruction is unresolved (Spectre: branches; Futuristic:
      // branches and loads) — mis-speculated instructions therefore
      // never execute and can neither touch caches nor interfere with
      // older ones.
      case SchemeKind::FenceSpectre:
        return {"Fence (Spectre)", SafePoint::BranchesResolved,
                SpecLoadPolicy::DelayAlways, SpecCoherencePolicy::DeferAll,
                IssueFence::Branches, /*protects_ifetch=*/false,
                /*trains_prefetcher=*/false, {}};
      case SchemeKind::FenceFuturistic:
        return {"Fence (Futuristic)", SafePoint::TSO,
                SpecLoadPolicy::DelayAlways, SpecCoherencePolicy::DeferAll,
                IssueFence::BranchesAndLoads, /*protects_ifetch=*/false,
                /*trains_prefetcher=*/false, {}};

      // The paper's sketched advanced defense (§5.4), layered on
      // Delay-on-Miss cache protection. Rule 1 — *no early release*: a
      // speculative instruction holds its RS entry until it retires or
      // is squashed, making occupancy duration operand-independent.
      // Rule 2 — *never delay an older instruction*: age-priority issue
      // with squashable non-pipelined EUs (older ready instructions
      // preempt younger speculative occupants) and speculative-MSHR
      // preemption. advancedDefense() gives the ablation's rows.
      //
      // Invariant: the issue/completion timing of a bound-to-retire
      // instruction is independent of any younger speculative
      // instruction — speculative resource occupancy is
      // operand-independent (Rule 1) and always preemptible by older
      // work (Rule 2) — while the DoM layer keeps speculative loads
      // from changing cache state before their safe point.
      case SchemeKind::AdvancedDefense:
        return {"Advanced (DoM+prio)", SafePoint::BranchesResolved,
                SpecLoadPolicy::DelayOnMiss, SpecCoherencePolicy::DeferAll,
                IssueFence::None, /*protects_ifetch=*/false,
                /*trains_prefetcher=*/false,
                {/*age=*/true, /*hold=*/true, /*mshr=*/true}};
    }
    panic("makeScheme: unknown SchemeKind");
}

Scheme
advancedDefense(SchedFlags rules, SpecLoadPolicy base)
{
    Scheme s = makeScheme(SchemeKind::AdvancedDefense);
    if (base != SpecLoadPolicy::DelayOnMiss) {
        // The rules on a substrate whose speculative requests leave the
        // core: the RFO request is still made (and observable) and
        // speculative misses train the prefetcher.
        s = {"Advanced (IS+prio)", SafePoint::BranchesResolved, base,
             SpecCoherencePolicy::DeferUpgrade, IssueFence::None,
             /*protects_ifetch=*/false, /*trains_prefetcher=*/true, {}};
    }
    s.sched_ = rules;
    return s;
}

std::vector<SchemeKind>
attackedSchemes()
{
    return {
        SchemeKind::DomNonTso,
        SchemeKind::DomTso,
        SchemeKind::InvisiSpecSpectre,
        SchemeKind::InvisiSpecFuturistic,
        SchemeKind::SafeSpecWfb,
        SchemeKind::SafeSpecWfc,
        SchemeKind::MuonTrap,
        SchemeKind::ConditionalSpec,
    };
}

std::vector<SchemeKind>
allSchemes()
{
    std::vector<SchemeKind> out = {SchemeKind::Unsafe};
    for (SchemeKind k : attackedSchemes())
        out.push_back(k);
    out.push_back(SchemeKind::FenceSpectre);
    out.push_back(SchemeKind::FenceFuturistic);
    out.push_back(SchemeKind::AdvancedDefense);
    return out;
}

std::string
schemeName(SchemeKind kind)
{
    return makeScheme(kind).name();
}

bool
FilterCache::probe(Addr line) const
{
    return std::any_of(lines_.begin(), lines_.begin() + size_,
                       [line](const Line &l) { return l.line == line; });
}

void
FilterCache::fill(Addr line, SeqNum seq)
{
    if (probe(line))
        return;
    if (size_ == kLines) {
        // FIFO: evict the oldest fill.
        std::copy(lines_.begin() + 1, lines_.end(), lines_.begin());
        --size_;
    }
    lines_[size_++] = {line, seq};
}

void
FilterCache::squashYoungerThan(SeqNum bound)
{
    const auto kept =
        std::remove_if(lines_.begin(), lines_.begin() + size_,
                       [bound](const Line &l) { return l.seq > bound; });
    size_ = static_cast<std::size_t>(kept - lines_.begin());
}

} // namespace specint
