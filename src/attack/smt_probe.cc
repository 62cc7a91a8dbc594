/**
 * @file
 * SMT sibling-thread probe implementation: the victim gadgets and
 * probe streams, the two-thread trial harness and the contention
 * channel.
 */

#include "attack/smt_probe.hh"

#include "sim/log.hh"

namespace specint
{

namespace
{

// Registers past the victim prefix's.
constexpr RegId rX = 4;  // transmitter result
constexpr RegId rFp = 5; // gadget VSQRTPD chain value
constexpr RegId rP = 6;  // probe scratch

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
    if (p.probeOps == 0)
        fatal("buildSmtAttack: probeOps must be nonzero");
    if (p.kind == SmtChannelKind::Port && p.gadgetLen == 0)
        fatal("buildSmtAttack: gadgetLen must be nonzero");
    if (p.kind == SmtChannelKind::Mshr && p.mshrLoads == 0)
        fatal("buildSmtAttack: mshrLoads must be nonzero");

    SmtAttack atk;
    atk.params = p;

    // ---- victim (thread 0) ------------------------------------------
    // S array after the prefix's data: the transmitter indexes
    // S[secret * 64], the MSHR gadget S[secret * 64m].
    const Addr s_base =
        buildVictimPrefix(atk, kVictimBase, p.predicateDepth);
    Program &v = atk.victim;
    if (p.kind == SmtChannelKind::Port) {
        // Transmitter: secret=1 -> S[64] (L1-warm, hit: the VSQRTPD
        // chain issues inside the window); secret=0 -> S[0] (flushed,
        // miss: the chain's operand arrives only after the squash).
        atk.warmLines.push_back(s_base + kLineBytes);
        atk.flushLines.push_back(s_base);
        v.load(rX, kSecretReg, static_cast<std::int64_t>(s_base), 64,
               "transmitter");
        v.sqrt(rFp, rX, "fp1");
        for (unsigned k = 1; k < p.gadgetLen; ++k)
            v.sqrt(rFp, rFp, "fp" + std::to_string(k + 1));
    } else {
        // MSHR gadget: all M candidate lines LLC-resident so each is
        // an L1 miss that occupies an MSHR for the (short) LLC
        // latency; addr = secret * (64*m) + s_base: distinct lines iff
        // secret == 1 (the Fig. 4 pattern).
        for (unsigned m = 0; m < p.mshrLoads; ++m) {
            atk.llcWarmLines.push_back(s_base + 64ULL * m);
            v.load(static_cast<RegId>(16 + (m % 16)), kSecretReg,
                   static_cast<std::int64_t>(s_base), 64 * m,
                   "gml" + std::to_string(m));
        }
    }
    v.halt(); // wrong-path fetch stopper; squashed before retiring

    // ---- probe (thread 1) -------------------------------------------
    Program &pr = atk.probe;
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

ProbeTrialOutcome
SmtProbeHarness::runTrial()
{
    const EngineRunResult run = smt_.run({&atk_.victim, &atk_.probe});

    ProbeTrialOutcome out;
    out.cycles = run.cycles;
    out.finished = run.finished;
    // The probe thread's view of its sibling: cycles the victim held
    // port 0 (Port) or the victim's MSHR entry-cycles (Mshr).
    const ThreadStats &probe = run.threads[1];
    out.score = atk_.params.kind == SmtChannelKind::Port
                    ? probe.siblingPort0Cycles
                    : probe.siblingMshrCycles;
    return out;
}

ProbeChannelResult
runSmtContentionChannel(const std::vector<std::uint8_t> &bits,
                        const SmtChannelConfig &cfg)
{
    return SmtProbeHarness(buildSmtAttack(cfg.attack), cfg.scheme,
                           cfg.core, cfg.smt, cfg.hier)
        .transmit(bits, cfg);
}

} // namespace specint
