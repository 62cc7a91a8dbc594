/**
 * @file
 * Coherence/prefetch probe implementation: the invalidation and
 * prefetch-training gadgets and probes, their hierarchy defaults and
 * the channel.
 */

#include "attack/coherence_probe.hh"

#include <algorithm>

#include "memory/eviction_set.hh"
#include "sim/log.hh"

namespace specint
{

namespace
{

constexpr RegId rDelay = 4; // probe delay-chain accumulator

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
    if (p.kind == CoherenceChannelKind::PrefetchTraining &&
        p.probeOps == 0) {
        fatal("buildCoherenceAttack: probeOps must be nonzero");
    }

    CoherenceAttack atk;
    atk.params = p;

    // ---- victim (core 0) --------------------------------------------
    // The chase keeps the squash well after the gadget's speculative
    // request has left the core.
    const Addr free_line =
        buildVictimPrefix(atk, kVictimBase, p.predicateDepth);
    Program &v = atk.victim;
    Addr shared_line = kAddrInvalid;
    if (p.kind == CoherenceChannelKind::Invalidation) {
        // addr = secret * (shared - decoy) + decoy: the store's RFO
        // targets the probe-shared line iff secret == 1. The decoy is
        // victim-local, so a secret=0 RFO invalidates nobody.
        const Addr decoy = free_line;
        shared_line = free_line + kLineBytes;
        atk.probeWarmLines.push_back(shared_line);
        atk.flushLines.push_back(decoy);
        v.store(kSecretReg, kIndexReg, static_cast<std::int64_t>(decoy),
                static_cast<std::uint32_t>(shared_line - decoy),
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
        v.load(static_cast<RegId>(16), kSecretReg,
               static_cast<std::int64_t>(decoy),
               static_cast<std::uint32_t>(trigger - decoy), "trigger");

        const unsigned assoc = hier.config().llcSlice.ways;
        const unsigned count = std::min(p.probeOps, assoc);
        atk.primeLines =
            buildEvictionSet(hier, target, count, 0x12000000);
    }
    v.halt(); // wrong-path fetch stopper; squashed before retiring

    // ---- probe (core 1) ---------------------------------------------
    Program &pr = atk.probe;
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
                static_cast<std::int64_t>(shared_line), 0, "p0");
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

namespace
{

/** @p hier with the coherence model (Invalidation) or the next-line
 *  prefetcher (PrefetchTraining) switched on, unless configured. */
HierarchyConfig
withCoherenceDefaults(CoherenceChannelKind kind, HierarchyConfig hier)
{
    if (kind == CoherenceChannelKind::Invalidation)
        hier.coherence.enabled = true;
    if (kind == CoherenceChannelKind::PrefetchTraining &&
        hier.prefetch.kind == PrefetchKind::None) {
        hier.prefetch.kind = PrefetchKind::NextLine;
        hier.prefetch.degree = 1;
    }
    return hier;
}

} // namespace

CoherenceHarness::CoherenceHarness(CoherenceAttackParams params,
                                   SchemeKind victim_scheme,
                                   CoreConfig core, HierarchyConfig hier)
    : CrossCoreHarness(victim_scheme, core,
                       withCoherenceDefaults(params.kind, hier),
                       [&params](const Hierarchy &h) {
                           return buildCoherenceAttack(params, h);
                       })
{}

ProbeChannelResult
runCoherenceChannel(const std::vector<std::uint8_t> &bits,
                    const CoherenceChannelConfig &cfg)
{
    return CoherenceHarness(cfg.attack, cfg.scheme, cfg.core, cfg.hier)
        .transmit(bits, cfg);
}

} // namespace specint
