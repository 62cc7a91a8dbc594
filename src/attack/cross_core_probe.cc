/**
 * @file
 * Cross-core probe implementation: the occupancy/eviction gadgets and
 * probes, the two-core System trial harness every two-core channel
 * shares, and the cross-core channel.
 */

#include "attack/cross_core_probe.hh"

#include <algorithm>

#include "memory/eviction_set.hh"
#include "sim/log.hh"

namespace specint
{

namespace
{

constexpr RegId rDelay = 4; // probe delay-chain accumulator

/** Victim data region (predicate chase, secret slot, S array). */
constexpr Addr kVictimBase = 0x03000000;
/** Probe data region (Occupancy-mode load stream), disjoint from the
 *  victim's so the only coupling is the shared LLC. */
constexpr Addr kProbeBase = 0x08000000;

} // namespace

std::string
crossCoreChannelKindName(CrossCoreChannelKind k)
{
    switch (k) {
      case CrossCoreChannelKind::Occupancy: return "occupancy";
      case CrossCoreChannelKind::Eviction: return "eviction";
    }
    return "?";
}

CrossCoreAttack
buildCrossCoreAttack(const CrossCoreAttackParams &p,
                     const Hierarchy &hier)
{
    if (p.gadgetLoads == 0)
        fatal("buildCrossCoreAttack: gadgetLoads must be nonzero");
    if (p.probeOps == 0)
        fatal("buildCrossCoreAttack: probeOps must be nonzero");

    CrossCoreAttack atk;
    atk.params = p;

    // ---- victim (core 0) --------------------------------------------
    // S array after the prefix's data: the gadget indexes
    // S[secret * 64m].
    const Addr s_base =
        buildVictimPrefix(atk, kVictimBase, p.predicateDepth);
    Program &v = atk.victim;
    if (p.kind == CrossCoreChannelKind::Occupancy) {
        // addr = secret * (64*m) + s_base: distinct lines iff
        // secret == 1. All candidates are flushed, so every request
        // that leaves the core goes to memory and occupies one of the
        // shared LLC MSHRs for the full memory latency.
        for (unsigned m = 0; m < p.gadgetLoads; ++m) {
            v.load(static_cast<RegId>(16 + (m % 16)), kSecretReg,
                   static_cast<std::int64_t>(s_base), 64 * m,
                   "gml" + std::to_string(m));
            atk.flushLines.push_back(s_base + 64ULL * m);
        }
    } else {
        // Transmitter: secret=0 -> T0 = S[0], secret=1 -> T1 = S[64].
        // T1's LLC set is the one the probe primes; a visible
        // speculative fill of T1 evicts one probe line.
        v.load(static_cast<RegId>(16), kSecretReg,
               static_cast<std::int64_t>(s_base), 64, "transmitter");
        atk.flushLines.push_back(s_base);
        atk.flushLines.push_back(s_base + kLineBytes);
    }
    v.halt(); // wrong-path fetch stopper; squashed before retiring

    // ---- probe (core 1) ---------------------------------------------
    Program &pr = atk.probe;
    unsigned delay_ops = p.probeDelayOps;
    if (delay_ops == 0 && p.kind == CrossCoreChannelKind::Eviction)
        delay_ops = 200;

    // Dependent ALU chain; the probe loads hang off its result so
    // out-of-order issue cannot hoist them before the victim's window.
    for (unsigned k = 0; k < delay_ops; ++k)
        pr.alu(rDelay, rDelay, kNoReg, 1);

    if (p.kind == CrossCoreChannelKind::Occupancy) {
        // A stream of loads to distinct uncached lines: each needs a
        // shared LLC MSHR for its memory fill, so the capacity the
        // victim's gadget left over bounds the probe's progress — the
        // probe's finish time is the signal.
        for (unsigned k = 0; k < p.probeOps; ++k) {
            const Addr a = kProbeBase + 64ULL * k;
            atk.flushLines.push_back(a);
            pr.load(static_cast<RegId>(16 + (k % 16)),
                    delay_ops ? rDelay : kNoReg,
                    static_cast<std::int64_t>(a), 0,
                    "p" + std::to_string(k));
        }
        atk.probeLoadCount = p.probeOps;
    } else {
        // Prime+Probe over T1's LLC set: prime fills the set with
        // assoc congruent lines; the probe times each one afterwards
        // and the victim's eviction shows up as one memory-latency
        // miss in the summed probe latency.
        const Addr target = s_base + kLineBytes; // T1
        const unsigned assoc = hier.config().llcSlice.ways;
        const unsigned count = std::min(p.probeOps, assoc);
        atk.primeLines =
            buildEvictionSet(hier, target, count, 0x10000000);
        for (unsigned k = 0; k < count; ++k) {
            pr.load(static_cast<RegId>(16 + (k % 16)), rDelay,
                    static_cast<std::int64_t>(atk.primeLines[k]), 0,
                    "p" + std::to_string(k));
        }
        atk.probeLoadCount = count;
    }
    pr.halt();

    return atk;
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

namespace
{

/** @p hier with the Occupancy kind's shared-LLC contention defaults
 *  filled in, unless the caller set either knob. */
HierarchyConfig
withLlcContention(CrossCoreChannelKind kind, HierarchyConfig hier)
{
    if (kind == CrossCoreChannelKind::Occupancy &&
        hier.llcPortBusy == 0 && hier.llcMshrs == 0) {
        hier.llcPortBusy = CrossCoreHarness::kDefaultLlcPortBusy;
        hier.llcMshrs = CrossCoreHarness::kDefaultLlcMshrs;
    }
    return hier;
}

SystemConfig
twoCoreConfig(const CoreConfig &core, const HierarchyConfig &hier)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.core = core;
    cfg.smt = SmtConfig::singleThread();
    cfg.hier = hier;
    return cfg;
}

} // namespace

CrossCoreHarness::CrossCoreHarness(CrossCoreAttackParams params,
                                   SchemeKind victim_scheme,
                                   CoreConfig core, HierarchyConfig hier)
    : CrossCoreHarness(victim_scheme, core,
                       withLlcContention(params.kind, hier),
                       [&params](const Hierarchy &h) {
                           return buildCrossCoreAttack(params, h);
                       })
{}

CrossCoreHarness::CrossCoreHarness(SchemeKind victim_scheme,
                                   const CoreConfig &core,
                                   const HierarchyConfig &hier,
                                   const AttackBuilder &build)
    : sys_(twoCoreConfig(core, hier)), atk_(build(sys_.hierarchy()))
{
    sys_.core(0).setScheme(0, makeScheme(victim_scheme));
    // The probe is the attacker's own code: it runs undefended.
    sys_.core(1).setScheme(0, makeScheme(SchemeKind::Unsafe));
}

void
CrossCoreHarness::prepare(unsigned secret, NoiseModel *noise)
{
    Hierarchy &hier = sys_.hierarchy();
    MainMemory &mem = sys_.memory();
    // The spare direct-LLC client id System reserves past its cores.
    const CoreId warm_id = static_cast<CoreId>(sys_.numCores());

    // Nothing here decodes the visible LLC trace; drop the previous
    // trial's so it does not grow with every trial.
    hier.clearLlcTrace();

    for (const auto &[addr, value] : atk_.memInit)
        mem.write(addr, value);
    mem.write(atk_.secretSlot, secret);

    // Warm every instruction line into both cores' private caches so
    // trial-to-trial I-fetch state is identical (the first trial would
    // otherwise differ from the rest).
    for (unsigned pc = 0; pc < atk_.victim.size(); ++pc)
        hier.access(0, atk_.victim.instLine(pc), AccessType::Instr, 0);
    for (unsigned pc = 0; pc < atk_.probe.size(); ++pc)
        hier.access(1, atk_.probe.instLine(pc), AccessType::Instr, 0);

    for (Addr a : atk_.flushLines)
        hier.flushLine(a);

    // LLC-resident-only lines: flush private copies, then refill the
    // LLC from the spare client (a previous trial pulled them into the
    // victim core's private caches).
    for (Addr a : atk_.llcWarmLines) {
        hier.flushLine(a);
        hier.accessDirect(warm_id, a, 0);
    }

    // Prime+Probe kinds: prime the monitored LLC set.
    for (Addr a : atk_.primeLines)
        hier.flushLine(a);
    for (Addr a : atk_.primeLines)
        hier.accessDirect(warm_id, a, 0);

    // Probe-core private warm lines (the shared line the Invalidation
    // kind monitors): flush first so the directory starts every trial
    // from the same (probe-held, Exclusive) state.
    for (Addr a : atk_.probeWarmLines)
        hier.flushLine(a);
    for (unsigned pass = 0; pass < 2; ++pass)
        for (Addr a : atk_.probeWarmLines)
            hier.access(1, a, AccessType::Data, 0);

    // Victim-core private warm lines.
    for (unsigned pass = 0; pass < 2; ++pass)
        for (Addr a : atk_.warmLines)
            hier.access(0, a, AccessType::Data, 0);

    const bool fail = noise && noise->mistrainFails();
    sys_.core(0).predictor(0).train(atk_.branchPc, !fail, 6);

    // The untimed setup above must not carry shared-level queueing or
    // prefetcher counts into the timed run. (Without prefetchers, the
    // last one is a no-op.)
    hier.resetContention();
    for (CoreId c = 0; c < static_cast<CoreId>(sys_.numCores()); ++c)
        hier.prefetcher(c).reset();
}

ProbeTrialOutcome
CrossCoreHarness::runTrial()
{
    const SystemRunResult run =
        sys_.run({{&atk_.victim}, {&atk_.probe}});

    ProbeTrialOutcome out;
    out.cycles = run.cycles;
    out.finished = run.finished;
    // Summed latency of the labeled probe loads — the quantity a real
    // attacker times. Occupancy: shared-level queueing behind the
    // victim's fills inflates it; Prime+Probe kinds: each victim-caused
    // eviction adds ~(memLatency - llcLatency); Invalidation: the
    // shared line's re-fetch from the LLC.
    for (unsigned k = 0; k < atk_.probeLoadCount; ++k) {
        const InstTraceEntry *e =
            sys_.core(1).traceEntry(0, "p" + std::to_string(k));
        if (e && e->completeAt >= e->issuedAt)
            out.score += e->completeAt - e->issuedAt;
    }
    return out;
}

ProbeChannelResult
runCrossCoreChannel(const std::vector<std::uint8_t> &bits,
                    const CrossCoreChannelConfig &cfg)
{
    return CrossCoreHarness(cfg.attack, cfg.scheme, cfg.core, cfg.hier)
        .transmit(bits, cfg);
}

} // namespace specint
