/**
 * @file
 * Cross-core coherence and prefetcher-training probes: the two
 * interference channels opened by the memory model's coherence and
 * prefetcher layers (memory/coherence.hh, memory/prefetcher.hh).
 *
 * The victim runs on core 0 of a two-core System; the probe is a real
 * program on core 1. Unlike the shared-LLC channels of
 * cross_core_probe.hh, neither channel here needs the victim's fills
 * to be visible — both exploit side effects of *making a request*:
 *
 *   Invalidation channel: the probe holds a shared line in S (warmed
 *     into its private caches). The victim's mis-speculated gadget
 *     issues a store whose address is the shared line iff secret=1;
 *     the store's read-for-ownership invalidates the probe's copy the
 *     moment the store *issues* — before the squash, and irrevocably.
 *     The probe then times one load of the line: private hit (fast)
 *     vs re-fetch from the LLC (slow). Schemes that defer only the
 *     *upgrade* (InvisiSpec/SafeSpec/MuonTrap:
 *     SpecCoherencePolicy::DeferUpgrade) still let the invalidation
 *     out and leak; DoM-style DeferAll schemes and the fence defenses
 *     (whose gadget never issues) are closed.
 *
 *   PrefetchTraining channel: the victim's mis-speculated load
 *     touches a trigger line iff secret=1. The demand request may be
 *     invisible, but it trains the core's next-line prefetcher —
 *     which issues a *visible* prefetch of trigger+1 into an LLC set
 *     the probe has primed, evicting one probe line. The probe times
 *     its primed lines (Prime+Probe). Leaks through every scheme
 *     whose speculative requests leave the core (the trainsPrefetcher
 *     column of the scheme table, spec/scheme.cc); closed by
 *     DoM/fences, whose speculative misses never issue.
 *
 * Both are the paper's thesis one layer up: invisible speculation
 * hides cache state, not the request's side effects. Both run on the
 * two-core harness of cross_core_probe.hh.
 */

#ifndef SPECINT_ATTACK_COHERENCE_PROBE_HH
#define SPECINT_ATTACK_COHERENCE_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attack/cross_core_probe.hh"

namespace specint
{

/** Which request side effect carries the signal. */
enum class CoherenceChannelKind : std::uint8_t
{
    Invalidation,     ///< speculative-store RFO invalidates the probe
    PrefetchTraining, ///< speculative load trains a visible prefetch
};

std::string coherenceChannelKindName(CoherenceChannelKind k);

/** Victim-gadget and probe tuning knobs. */
struct CoherenceAttackParams
{
    CoherenceChannelKind kind = CoherenceChannelKind::Invalidation;
    /** Branch-predicate chase depth (LLC-warm links): sets the squash
     *  time and thereby the width of the speculation window. */
    unsigned predicateDepth = 2;
    /** Dependent-ALU prefix delaying the probe's timed loads past the
     *  victim's speculative request (0 = per-kind default: 40 for
     *  Invalidation, 200 for PrefetchTraining). */
    unsigned probeDelayOps = 0;
    /** Primed-set probes (PrefetchTraining kind; capped at the LLC
     *  associativity). */
    unsigned probeOps = 16;
};

/** A coherence/prefetch attack: the victim runs on core 0, the probe
 *  on core 1. */
struct CoherenceAttack : ProbeAttack
{
    CoherenceAttackParams params;
};

/**
 * Build the victim/probe program pair for @p params. @p hier provides
 * the LLC set/slice mapping the PrefetchTraining kind needs for the
 * primed eviction set.
 */
CoherenceAttack buildCoherenceAttack(const CoherenceAttackParams &params,
                                     const Hierarchy &hier);

/**
 * The two-core harness running a coherence/prefetch attack. The
 * Invalidation kind enables the coherence model and the
 * PrefetchTraining kind the next-line prefetcher, unless the caller
 * already configured them in @p hier.
 */
class CoherenceHarness : public CrossCoreHarness
{
  public:
    CoherenceHarness(CoherenceAttackParams params,
                     SchemeKind victim_scheme,
                     CoreConfig core = CoreConfig{},
                     HierarchyConfig hier = HierarchyConfig::small());
};

/** Coherence/prefetch channel configuration. */
struct CoherenceChannelConfig : ProbeChannelConfig
{
    CoherenceAttackParams attack;
};

/** Transmit @p bits over the coherence/prefetch channel against
 *  cfg.scheme (ProbeHarness::transmit()). */
ProbeChannelResult
runCoherenceChannel(const std::vector<std::uint8_t> &bits,
                    const CoherenceChannelConfig &cfg);

} // namespace specint

#endif // SPECINT_ATTACK_COHERENCE_PROBE_HH
