/**
 * @file
 * SMT sibling-thread probe implementation: victim/probe program
 * builders, the two-thread trial harness, calibration and the
 * end-to-end contention channel.
 */

#include "attack/smt_probe.hh"

#include <cassert>
#include <cstdlib>

#include "sim/log.hh"

namespace specint
{

namespace
{

// Register allocation for the SMT attack programs.
constexpr RegId rI = 1;      // attacker-controlled index, init 5
constexpr RegId rN = 2;      // branch predicate (chase result)
constexpr RegId rSecret = 3; // transiently loaded secret
constexpr RegId rX = 4;      // transmitter result
constexpr RegId rFp = 5;     // gadget VSQRTPD chain value
constexpr RegId rP = 6;      // probe scratch

/** Victim data region (predicate chase, secret slot, S array). */
constexpr Addr kVictimBase = 0x03000000;
/** Probe data region (MSHR-mode load stream), disjoint from the
 *  victim's so the only coupling is the shared pipeline resources. */
constexpr Addr kProbeBase = 0x04000000;

} // namespace

std::string
smtChannelKindName(SmtChannelKind k)
{
    switch (k) {
      case SmtChannelKind::Port: return "port-0";
      case SmtChannelKind::Mshr: return "mshr";
    }
    return "?";
}

SmtAttack
buildSmtAttack(const SmtAttackParams &p)
{
    if (p.predicateDepth == 0)
        fatal("buildSmtAttack: predicateDepth must be nonzero");
    if (p.probeOps == 0)
        fatal("buildSmtAttack: probeOps must be nonzero");
    if (p.kind == SmtChannelKind::Port && p.gadgetLen == 0)
        fatal("buildSmtAttack: gadgetLen must be nonzero");
    if (p.kind == SmtChannelKind::Mshr && p.mshrLoads == 0)
        fatal("buildSmtAttack: mshrLoads must be nonzero");

    SmtAttack atk;
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
    // S array: the transmitter indexes S[secret * 64]; the MSHR gadget
    // indexes S[secret * 64m], so reserve the full candidate range.
    const unsigned s_span =
        (p.kind == SmtChannelKind::Mshr ? p.mshrLoads : 1) + 1;
    const Addr s_base = next;
    next += static_cast<Addr>(kLineBytes) * s_span;

    // Predicate chase: LLC-resident links. Each link costs an
    // L1+L2 miss/LLC hit, so the branch resolves (and the squash
    // lands) ~predicateDepth * llcLatency cycles in — the width of
    // the window in which the gadget's resource usage is observable.
    for (unsigned d = 0; d + 1 < p.predicateDepth; ++d)
        atk.memInit.emplace_back(n_nodes[d], n_nodes[d + 1]);
    atk.memInit.emplace_back(n_nodes[p.predicateDepth - 1], 1);
    for (Addr a : n_nodes)
        atk.llcWarmLines.push_back(a);

    atk.secretSlot = t_base;
    atk.warmLines.push_back(t_base);
    if (p.kind == SmtChannelKind::Port) {
        // Transmitter: secret=1 -> S[64] (L1-warm, hit: the VSQRTPD
        // chain issues inside the window); secret=0 -> S[0] (flushed,
        // miss: the chain's operand arrives only after the squash).
        atk.warmLines.push_back(s_base + kLineBytes);
        atk.flushLines.push_back(s_base);
    } else {
        // MSHR gadget working set: all M candidate lines LLC-resident
        // so each is an L1 miss that occupies an MSHR for the (short)
        // LLC latency.
        for (unsigned m = 0; m < p.mshrLoads; ++m)
            atk.llcWarmLines.push_back(s_base + 64ULL * m);
    }

    // ---- victim program (thread 0) ----------------------------------
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
    if (p.kind == SmtChannelKind::Port) {
        v.load(rX, rSecret, static_cast<std::int64_t>(s_base), 64,
               "transmitter");
        v.sqrt(rFp, rX, "fp1");
        for (unsigned k = 1; k < p.gadgetLen; ++k)
            v.sqrt(rFp, rFp, "fp" + std::to_string(k + 1));
    } else {
        for (unsigned m = 0; m < p.mshrLoads; ++m) {
            // addr = secret * (64*m) + s_base: distinct lines iff
            // secret == 1 (the Fig. 4 pattern).
            v.load(static_cast<RegId>(16 + (m % 16)), rSecret,
                   static_cast<std::int64_t>(s_base), 64 * m,
                   "gml" + std::to_string(m));
        }
    }
    v.halt(); // wrong-path fetch stopper; squashed before retiring

    // ---- probe program (thread 1) -----------------------------------
    Program &pr = atk.probe;
    pr = Program(0x500000);
    if (p.kind == SmtChannelKind::Port) {
        // A stream of independent VSQRTPD ops: each needs the
        // non-pipelined port-0 unit, so any cycle it is held by the
        // sibling is directly felt (and sampled).
        pr.setReg(rP, 9);
        for (unsigned k = 0; k < p.probeOps; ++k)
            pr.sqrt(static_cast<RegId>(16 + (k % 16)), rP,
                    k == 0 ? "probe0" : "");
    } else {
        // A stream of loads to distinct LLC-resident lines: each
        // occupies one of the shared MSHRs, so the file's free
        // capacity — what the sibling leaves over — bounds progress.
        for (unsigned k = 0; k < p.probeOps; ++k) {
            const Addr a = kProbeBase + 64ULL * k;
            atk.llcWarmLines.push_back(a);
            pr.load(static_cast<RegId>(16 + (k % 16)), kNoReg,
                    static_cast<std::int64_t>(a), 1,
                    k == 0 ? "probe0" : "");
        }
    }
    pr.halt();

    return atk;
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

namespace
{

SmtConfig
probeSmtConfig(SmtConfig smt)
{
    smt.numThreads = 2;
    smt.recordContention = true;
    return smt;
}

} // namespace

SmtProbeHarness::SmtProbeHarness(SmtAttack attack,
                                 SchemeKind victim_scheme,
                                 CoreConfig core, SmtConfig smt,
                                 HierarchyConfig hier)
    : atk_(std::move(attack)), hier_(hier),
      smt_(core, probeSmtConfig(smt), 0, hier_, mem_)
{
    smt_.setScheme(0, makeScheme(victim_scheme));
    // The probe is the attacker's own code: it runs undefended.
    smt_.setScheme(1, makeScheme(SchemeKind::Unsafe));
}

void
SmtProbeHarness::prepare(unsigned secret, NoiseModel *noise)
{
    // Nothing here decodes the visible LLC trace; drop the previous
    // trial's so it does not grow with every trial.
    hier_.clearLlcTrace();

    for (const auto &[addr, value] : atk_.memInit)
        mem_.write(addr, value);
    mem_.write(atk_.secretSlot, secret);

    for (Addr a : atk_.flushLines)
        hier_.flushLine(a);

    // LLC-resident-only lines: flush private copies, then refill the
    // LLC from a third party (the previous trial pulled them into the
    // SMT core's private caches).
    for (Addr a : atk_.llcWarmLines) {
        hier_.flushLine(a);
        hier_.accessDirect(1, a, 0);
    }

    // Core-private warm lines (shared by both SMT threads).
    for (unsigned pass = 0; pass < 2; ++pass)
        for (Addr a : atk_.warmLines)
            hier_.access(smt_.id(), a, AccessType::Data, 0);

    const bool fail = noise && noise->mistrainFails();
    smt_.predictor(0).train(atk_.branchPc, !fail, 6);
}

SmtTrialOutcome
SmtProbeHarness::runTrial()
{
    const SmtRunResult run = smt_.run({&atk_.victim, &atk_.probe});

    SmtTrialOutcome out;
    out.cycles = run.cycles;
    out.finished = run.finished;
    // Integrate the probe thread's per-cycle contention samples: held
    // sibling port-0 cycles (Port) or sibling MSHR occupancy (Mshr).
    for (const SmtContentionSample &s : smt_.contention(1)) {
        if (atk_.params.kind == SmtChannelKind::Port)
            out.score += s.port0HeldByOther ? 1 : 0;
        else
            out.score += s.mshrHeldByOther;
    }
    return out;
}

SmtCalibration
SmtProbeHarness::calibrate(std::uint64_t min_gap)
{
    // The known-secret runs must be noiseless or a borderline gap
    // could randomly fall under min_gap: suspend any installed noise
    // model (load jitter) for the two calibration trials.
    NoiseModel *saved = smt_.noiseModel();
    smt_.setNoise(nullptr);
    SmtCalibration cal;
    std::uint64_t score[2] = {0, 0};
    for (unsigned secret = 0; secret < 2; ++secret) {
        prepare(secret);
        score[secret] = runTrial().score;
    }
    smt_.setNoise(saved);
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

SmtChannelResult
runSmtContentionChannel(const std::vector<std::uint8_t> &bits,
                        const SmtChannelConfig &cfg)
{
    SmtProbeHarness harness(buildSmtAttack(cfg.attack), cfg.scheme,
                            cfg.core, cfg.smt, cfg.hier);
    NoiseModel noise(cfg.noise, cfg.seed);
    harness.core().setNoise(&noise);

    SmtChannelResult res;
    res.calibration = harness.calibrate(cfg.minCalibrationGap);

    for (std::uint8_t bit : bits) {
        unsigned votes[2] = {0, 0};
        for (unsigned t = 0; t < cfg.trialsPerBit; ++t) {
            harness.prepare(bit, &noise);
            const SmtTrialOutcome out = harness.runTrial();
            res.channel.totalCycles =
                res.channel.totalCycles + out.cycles +
                cfg.perTrialOverheadCycles;
            if (!res.calibration.usable)
                continue; // defense closed the channel: nothing decodes
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
