/**
 * @file
 * Cross-core probe implementation: victim/probe program builders,
 * the two-core System trial harness, calibration and the end-to-end
 * occupancy/eviction channels.
 */

#include "attack/cross_core_probe.hh"

#include <algorithm>
#include <cassert>

#include "memory/eviction_set.hh"
#include "sim/log.hh"

namespace specint
{

namespace
{

// Register allocation for the cross-core attack programs.
constexpr RegId rI = 1;      // attacker-controlled index, init 5
constexpr RegId rN = 2;      // branch predicate (chase result)
constexpr RegId rSecret = 3; // transiently loaded secret
constexpr RegId rDelay = 4;  // probe delay-chain accumulator

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
    if (p.predicateDepth == 0)
        fatal("buildCrossCoreAttack: predicateDepth must be nonzero");
    if (p.gadgetLoads == 0)
        fatal("buildCrossCoreAttack: gadgetLoads must be nonzero");
    if (p.probeOps == 0)
        fatal("buildCrossCoreAttack: probeOps must be nonzero");

    CrossCoreAttack atk;
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
    // S array: the gadget indexes S[secret * 64m], so reserve the full
    // candidate range.
    const Addr s_base = next;
    next += static_cast<Addr>(kLineBytes) * (p.gadgetLoads + 1);

    // Predicate chase: LLC-resident links, so the branch resolves (and
    // the squash lands) ~predicateDepth * llcLatency cycles in — the
    // width of the window in which the gadget's LLC traffic overlaps
    // the probe.
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
    if (p.kind == CrossCoreChannelKind::Occupancy) {
        // addr = secret * (64*m) + s_base: distinct lines iff
        // secret == 1. All candidates are flushed, so every request
        // that leaves the core goes to memory and occupies one of the
        // shared LLC MSHRs for the full memory latency.
        for (unsigned m = 0; m < p.gadgetLoads; ++m) {
            v.load(static_cast<RegId>(16 + (m % 16)), rSecret,
                   static_cast<std::int64_t>(s_base), 64 * m,
                   "gml" + std::to_string(m));
            atk.flushLines.push_back(s_base + 64ULL * m);
        }
    } else {
        // Transmitter: secret=0 -> T0 = S[0], secret=1 -> T1 = S[64].
        // T1's LLC set is the one the probe primes; a visible
        // speculative fill of T1 evicts one probe line.
        v.load(static_cast<RegId>(16), rSecret,
               static_cast<std::int64_t>(s_base), 64, "transmitter");
        atk.flushLines.push_back(s_base);
        atk.flushLines.push_back(s_base + kLineBytes);
    }
    v.halt(); // wrong-path fetch stopper; squashed before retiring

    // ---- probe program (core 1) -------------------------------------
    Program &pr = atk.probe;
    pr = Program(0x500000);
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

SystemConfig
probeSystemConfig(const CrossCoreAttackParams &p, const CoreConfig &core,
                  HierarchyConfig hier)
{
    if (p.kind == CrossCoreChannelKind::Occupancy &&
        hier.llcPortBusy == 0 && hier.llcMshrs == 0) {
        hier.llcPortBusy = CrossCoreHarness::kDefaultLlcPortBusy;
        hier.llcMshrs = CrossCoreHarness::kDefaultLlcMshrs;
    }
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
    : sys_(probeSystemConfig(params, core, hier)),
      atk_(buildCrossCoreAttack(params, sys_.hierarchy()))
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

    // Eviction kind: prime the monitored LLC set.
    for (Addr a : atk_.primeLines)
        hier.flushLine(a);
    for (Addr a : atk_.primeLines)
        hier.accessDirect(warm_id, a, 0);

    // Victim-core private warm lines.
    for (unsigned pass = 0; pass < 2; ++pass)
        for (Addr a : atk_.warmLines)
            hier.access(0, a, AccessType::Data, 0);

    const bool fail = noise && noise->mistrainFails();
    sys_.core(0).predictor(0).train(atk_.branchPc, !fail, 6);

    // The untimed setup above must not carry shared-level queueing
    // into the timed run.
    hier.resetContention();
}

CrossCoreTrialOutcome
CrossCoreHarness::runTrial()
{
    const SystemRunResult run =
        sys_.run({{&atk_.victim}, {&atk_.probe}});

    CrossCoreTrialOutcome out;
    out.cycles = run.cycles;
    out.finished = run.finished;
    // Summed latency of the labeled probe loads — the quantity a real
    // attacker times. Occupancy: shared-level queueing behind the
    // victim's fills inflates it; Eviction: each victim eviction adds
    // ~(memLatency - llcLatency).
    for (unsigned k = 0; k < atk_.probeLoadCount; ++k) {
        const InstTraceEntry *e =
            sys_.core(1).traceEntry(0, "p" + std::to_string(k));
        if (e && e->completeAt >= e->issuedAt)
            out.score += e->completeAt - e->issuedAt;
    }
    return out;
}

CrossCoreCalibration
CrossCoreHarness::calibrate(std::uint64_t min_gap)
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

CrossCoreChannelResult
runCrossCoreChannel(const std::vector<std::uint8_t> &bits,
                    const CrossCoreChannelConfig &cfg)
{
    CrossCoreHarness harness(cfg.attack, cfg.scheme, cfg.core,
                             cfg.hier);
    NoiseModel noise(cfg.noise, cfg.seed);
    harness.system().core(0).setNoise(&noise);

    CrossCoreChannelResult res;
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
            const CrossCoreTrialOutcome out = harness.runTrial();
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
