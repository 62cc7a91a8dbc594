/**
 * @file
 * Coherence/prefetch probe implementation: victim/probe program
 * builders, the two-core System trial harness, calibration and the
 * end-to-end invalidation/prefetch-training channels.
 */

#include "attack/coherence_probe.hh"

#include <algorithm>
#include <cassert>

#include "memory/eviction_set.hh"
#include "sim/log.hh"

namespace specint
{

namespace
{

// Register allocation for the coherence attack programs.
constexpr RegId rI = 1;      // attacker-controlled index, init 5
constexpr RegId rN = 2;      // branch predicate (chase result)
constexpr RegId rSecret = 3; // transiently loaded secret
constexpr RegId rDelay = 4;  // probe delay-chain accumulator

/** Victim data region (predicate chase, secret slot, decoy/shared
 *  lines). Disjoint from every other attack's regions. */
constexpr Addr kVictimBase = 0x04000000;
/** Trigger/decoy pages of the PrefetchTraining kind: distinct 4 KB
 *  pages so the two candidate streams never share a prefetch stream
 *  or a prefetch target. The decoy sits below the trigger because the
 *  gadget encodes the choice as decoy + secret * (trigger - decoy)
 *  and the scale field is unsigned. */
constexpr Addr kTriggerPage = 0x04200000;
constexpr Addr kDecoyPage = 0x04100000;

} // namespace

std::string
coherenceChannelKindName(CoherenceChannelKind k)
{
    switch (k) {
      case CoherenceChannelKind::Invalidation: return "coherence";
      case CoherenceChannelKind::PrefetchTraining: return "prefetch";
    }
    return "?";
}

CoherenceAttack
buildCoherenceAttack(const CoherenceAttackParams &p,
                     const Hierarchy &hier)
{
    if (p.predicateDepth == 0)
        fatal("buildCoherenceAttack: predicateDepth must be nonzero");
    if (p.kind == CoherenceChannelKind::PrefetchTraining &&
        p.probeOps == 0) {
        fatal("buildCoherenceAttack: probeOps must be nonzero");
    }

    CoherenceAttack atk;
    atk.params = p;

    // ---- victim data layout -----------------------------------------
    Addr next = kVictimBase;
    auto line = [&next]() {
        const Addr a = next;
        next += kLineBytes;
        return a;
    };

    std::vector<Addr> n_nodes;
    for (unsigned d = 0; d < p.predicateDepth; ++d)
        n_nodes.push_back(line());
    const Addr t_base = line();

    // Predicate chase: LLC-resident links, so the branch resolves (and
    // the squash lands) well after the gadget's speculative request
    // has left the core.
    for (unsigned d = 0; d + 1 < p.predicateDepth; ++d)
        atk.memInit.emplace_back(n_nodes[d], n_nodes[d + 1]);
    atk.memInit.emplace_back(n_nodes[p.predicateDepth - 1], 1);
    for (Addr a : n_nodes)
        atk.llcWarmLines.push_back(a);

    atk.secretSlot = t_base;
    atk.warmLines.push_back(t_base);

    // ---- victim program (core 0) ------------------------------------
    Program &v = atk.victim;
    v = Program(0x400000);
    v.setReg(rI, 5);

    v.load(rN, kNoReg, static_cast<std::int64_t>(n_nodes[0]), 1, "n0");
    for (unsigned d = 1; d < p.predicateDepth; ++d)
        v.load(rN, rN, 0, 1, "n" + std::to_string(d));

    // Mis-trained: predicted taken (gadget), architecturally
    // not-taken (rI=5 >= N=1).
    atk.branchPc = v.branch(BranchCond::LT, rI, rN, 0, "branch");
    v.halt();

    const unsigned gadget_pc = static_cast<unsigned>(v.size());
    v.setBranchTarget(atk.branchPc, gadget_pc);

    v.load(rSecret, kNoReg, static_cast<std::int64_t>(t_base), 1,
           "access");

    if (p.kind == CoherenceChannelKind::Invalidation) {
        // addr = secret * (shared - decoy) + decoy: the store's RFO
        // targets the probe-shared line iff secret == 1. The decoy is
        // victim-local, so a secret=0 RFO invalidates nobody.
        const Addr decoy = line();
        atk.sharedLine = line();
        atk.probeWarmLines.push_back(atk.sharedLine);
        atk.flushLines.push_back(decoy);
        v.store(rSecret, rI, static_cast<std::int64_t>(decoy),
                static_cast<std::uint32_t>(atk.sharedLine - decoy),
                "upgrade");
    } else {
        // addr = secret * (trigger - decoy) + decoy: the speculative
        // load touches the trigger page iff secret == 1. The next-line
        // prefetcher then issues a *visible* prefetch of trigger+1 —
        // the line whose LLC set the probe primed.
        //
        // Line offsets within the pages keep the monitored set (and
        // the decoy's harmless prefetch target) far from the sets the
        // two programs' code lines map to: an I-fetch refill landing
        // in the primed set would evict a primed line and drown the
        // signal in a self-eviction cascade.
        const Addr trigger = kTriggerPage + 39 * kLineBytes;
        const Addr decoy = kDecoyPage + 50 * kLineBytes;
        const Addr target = trigger + kLineBytes;
        atk.flushLines.push_back(trigger);
        atk.flushLines.push_back(decoy);
        atk.flushLines.push_back(target);
        atk.flushLines.push_back(decoy + kLineBytes);
        v.load(static_cast<RegId>(16), rSecret,
               static_cast<std::int64_t>(decoy),
               static_cast<std::uint32_t>(trigger - decoy), "trigger");

        const unsigned assoc = hier.config().llcSlice.ways;
        const unsigned count = std::min(p.probeOps, assoc);
        atk.primeLines =
            buildEvictionSet(hier, target, count, 0x12000000);
    }
    v.halt(); // wrong-path fetch stopper; squashed before retiring

    // ---- probe program (core 1) -------------------------------------
    Program &pr = atk.probe;
    pr = Program(0x500000);
    unsigned delay_ops = p.probeDelayOps;
    if (delay_ops == 0) {
        delay_ops =
            p.kind == CoherenceChannelKind::Invalidation ? 40 : 200;
    }

    // Dependent ALU chain; the probe loads hang off its result so
    // out-of-order issue cannot hoist them before the victim's
    // speculative request has gone out.
    for (unsigned k = 0; k < delay_ops; ++k)
        pr.alu(rDelay, rDelay, kNoReg, 1);

    if (p.kind == CoherenceChannelKind::Invalidation) {
        // One timed load of the shared line: private hit if the copy
        // survived, LLC re-fetch if the victim's RFO invalidated it.
        pr.load(static_cast<RegId>(16), rDelay,
                static_cast<std::int64_t>(atk.sharedLine), 0, "p0");
        atk.probeLoadCount = 1;
    } else {
        // Prime+Probe over the prefetch target's LLC set: the
        // prefetched fill evicts one primed line, which shows up as
        // one memory-latency miss in the summed probe latency.
        for (unsigned k = 0;
             k < static_cast<unsigned>(atk.primeLines.size()); ++k) {
            pr.load(static_cast<RegId>(16 + (k % 16)), rDelay,
                    static_cast<std::int64_t>(atk.primeLines[k]), 0,
                    "p" + std::to_string(k));
        }
        atk.probeLoadCount =
            static_cast<unsigned>(atk.primeLines.size());
    }
    pr.halt();

    return atk;
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

namespace
{

SystemConfig
coherenceSystemConfig(const CoherenceAttackParams &p,
                      const CoreConfig &core, HierarchyConfig hier)
{
    if (p.kind == CoherenceChannelKind::Invalidation &&
        !hier.coherence.enabled) {
        hier.coherence.enabled = true;
    }
    if (p.kind == CoherenceChannelKind::PrefetchTraining &&
        hier.prefetch.kind == PrefetchKind::None) {
        hier.prefetch.kind = PrefetchKind::NextLine;
        hier.prefetch.degree = 1;
    }
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.core = core;
    cfg.smt = SmtConfig::singleThread();
    cfg.hier = hier;
    return cfg;
}

} // namespace

CoherenceHarness::CoherenceHarness(CoherenceAttackParams params,
                                   SchemeKind victim_scheme,
                                   CoreConfig core, HierarchyConfig hier)
    : sys_(coherenceSystemConfig(params, core, hier)),
      atk_(buildCoherenceAttack(params, sys_.hierarchy()))
{
    sys_.core(0).setScheme(0, makeScheme(victim_scheme));
    // The probe is the attacker's own code: it runs undefended.
    sys_.core(1).setScheme(0, makeScheme(SchemeKind::Unsafe));
}

void
CoherenceHarness::prepare(unsigned secret, NoiseModel *noise)
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
    // trial-to-trial I-fetch state is identical.
    for (unsigned pc = 0; pc < atk_.victim.size(); ++pc)
        hier.access(0, atk_.victim.instLine(pc), AccessType::Instr, 0);
    for (unsigned pc = 0; pc < atk_.probe.size(); ++pc)
        hier.access(1, atk_.probe.instLine(pc), AccessType::Instr, 0);

    for (Addr a : atk_.flushLines)
        hier.flushLine(a);

    // LLC-resident-only lines: flush private copies, then refill the
    // LLC from the spare client.
    for (Addr a : atk_.llcWarmLines) {
        hier.flushLine(a);
        hier.accessDirect(warm_id, a, 0);
    }

    // PrefetchTraining kind: prime the monitored LLC set.
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
    // stale prefetcher training into the timed run.
    hier.resetContention();
    for (CoreId c = 0; c < static_cast<CoreId>(sys_.numCores()); ++c)
        hier.prefetcher(c).reset();
    hier.clearCoherenceTrace();
}

CoherenceTrialOutcome
CoherenceHarness::runTrial()
{
    const SystemRunResult run =
        sys_.run({{&atk_.victim}, {&atk_.probe}});

    CoherenceTrialOutcome out;
    out.cycles = run.cycles;
    out.finished = run.finished;
    // Summed latency of the labeled probe loads — the quantity a real
    // attacker times.
    for (unsigned k = 0; k < atk_.probeLoadCount; ++k) {
        const InstTraceEntry *e =
            sys_.core(1).traceEntry(0, "p" + std::to_string(k));
        if (e && e->completeAt >= e->issuedAt)
            out.score += e->completeAt - e->issuedAt;
    }
    return out;
}

CrossCoreCalibration
CoherenceHarness::calibrate(std::uint64_t min_gap)
{
    // Known-secret runs must be noiseless: suspend any installed
    // victim noise model for the two calibration trials.
    NoiseModel *saved = sys_.core(0).noiseModel();
    sys_.core(0).setNoise(nullptr);
    CrossCoreCalibration cal;
    std::uint64_t score[2] = {0, 0};
    for (unsigned secret = 0; secret < 2; ++secret) {
        prepare(secret);
        score[secret] = runTrial().score;
    }
    sys_.core(0).setNoise(saved);
    cal.score0 = score[0];
    cal.score1 = score[1];
    cal.oneIsHigh = score[1] > score[0];
    const std::uint64_t gap = cal.oneIsHigh ? score[1] - score[0]
                                            : score[0] - score[1];
    cal.usable = gap >= min_gap;
    cal.threshold =
        (static_cast<double>(score[0]) + static_cast<double>(score[1])) /
        2.0;
    return cal;
}

// ---------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------

CoherenceChannelResult
runCoherenceChannel(const std::vector<std::uint8_t> &bits,
                    const CoherenceChannelConfig &cfg)
{
    CoherenceHarness harness(cfg.attack, cfg.scheme, cfg.core,
                             cfg.hier);
    NoiseModel noise(cfg.noise, cfg.seed);
    harness.system().core(0).setNoise(&noise);

    CoherenceChannelResult res;
    res.calibration = harness.calibrate(cfg.minCalibrationGap);

    if (!res.calibration.usable) {
        // Defense closed the channel: every bit decodes as 0 no matter
        // what the trials measure, so skip the (full two-core System)
        // transmission runs entirely.
        for (std::uint8_t bit : bits) {
            ++res.channel.bitsSent;
            if (bit != 0)
                ++res.channel.bitErrors;
        }
        return res;
    }

    for (std::uint8_t bit : bits) {
        unsigned votes[2] = {0, 0};
        for (unsigned t = 0; t < cfg.trialsPerBit; ++t) {
            harness.prepare(bit, &noise);
            const CoherenceTrialOutcome out = harness.runTrial();
            res.channel.totalCycles =
                res.channel.totalCycles + out.cycles +
                cfg.perTrialOverheadCycles;
            ++votes[res.calibration.decode(out.score)];
        }
        const unsigned decoded = votes[1] > votes[0] ? 1u : 0u;
        ++res.channel.bitsSent;
        if (decoded != bit)
            ++res.channel.bitErrors;
    }
    return res;
}

} // namespace specint
