/**
 * @file
 * Cross-core interference probe and covert channels over the shared
 * LLC (the paper's CrossCore attacker placement, §2.1).
 *
 * The victim runs on core 0 of a two-core System; the probe is a real
 * program on core 1. The only coupling is the shared last-level
 * cache, in two distinct ways — one channel for each:
 *
 *   Occupancy channel: a mis-speculated victim gadget issues M loads
 *     to lines that are distinct iff secret=1 (the G^D_MSHR address
 *     pattern, Fig. 4, lifted to the shared level). Each miss occupies
 *     one of the shared LLC-to-memory MSHRs for the full memory
 *     latency — *even under invisible-speculation schemes*, whose
 *     requests hide cache-state changes but still consume shared-level
 *     bandwidth. The probe core streams loads to its own uncached
 *     lines concurrently; its completion time measures how much MSHR
 *     capacity the victim left over. Requires the Hierarchy's
 *     shared-level contention model (llcPortBusy/llcMshrs).
 *
 *   Eviction channel: the victim's speculative transmitter load fills
 *     an LLC set the probe has primed with an eviction set iff
 *     secret=1, evicting one probe line; the probe then times loads of
 *     its lines and counts the miss (classic Prime+Probe over the
 *     inclusive LLC). Open only against schemes whose speculative
 *     loads change cache state — invisible speculation closes it,
 *     which is exactly the contrast with the occupancy channel.
 *
 * Fence-style defenses close both (the gadget never issues);
 * Delay-on-Miss closes both too (speculative misses never leave the
 * core) — mirroring the SMT MSHR-channel result one level up.
 *
 * CrossCoreHarness is the one two-core harness: the coherence/prefetch
 * channels (coherence_probe.hh) run on it too, with their own attack
 * builder and hierarchy defaults.
 */

#ifndef SPECINT_ATTACK_CROSS_CORE_PROBE_HH
#define SPECINT_ATTACK_CROSS_CORE_PROBE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attack/probe_channel.hh"
#include "system/system.hh"

namespace specint
{

/** Which shared-LLC property carries the cross-core signal. */
enum class CrossCoreChannelKind : std::uint8_t { Occupancy, Eviction };

std::string crossCoreChannelKindName(CrossCoreChannelKind k);

/** Victim-gadget and probe tuning knobs. */
struct CrossCoreAttackParams
{
    CrossCoreChannelKind kind = CrossCoreChannelKind::Occupancy;
    /** Branch-predicate chase depth (LLC-warm links): sets the squash
     *  time and thereby the width of the interference window. */
    unsigned predicateDepth = 2;
    /** Victim gadget loads; distinct lines iff secret=1 (Occupancy).
     *  Should stay below the shared llcMshrs so calibration sees the
     *  full occupancy swing. */
    unsigned gadgetLoads = 6;
    /** Probe stream length (uncached loads / eviction-set probes). */
    unsigned probeOps = 24;
    /** Dependent-ALU prefix delaying the probe loads until the
     *  victim's speculative access has landed (0 = per-kind default:
     *  none for Occupancy, 200 for Eviction). */
    unsigned probeDelayOps = 0;
};

/** A cross-core attack: the victim runs on core 0, the probe on
 *  core 1. */
struct CrossCoreAttack : ProbeAttack
{
    CrossCoreAttackParams params;
};

/**
 * Build the victim/probe program pair for @p params. @p hier provides
 * the LLC set/slice mapping the Eviction kind needs for congruent
 * addresses (an attacker that has already recovered the mapping).
 */
CrossCoreAttack buildCrossCoreAttack(const CrossCoreAttackParams &params,
                                     const Hierarchy &hier);

/** @name The shared types under the names perfbench/ compiles against. */
/// @{
using CrossCoreTrialOutcome = ProbeTrialOutcome;
using CrossCoreCalibration = ProbeCalibration;
/// @}

/**
 * Trial harness for the two-core channels: owns a two-core System
 * (victim scheme on core 0, an undefended probe on core 1) and runs
 * prepare/run/score trials. The probe's score is the summed latency of
 * its labeled loads. The Occupancy kind enables the shared-LLC
 * contention model (defaults below) unless the caller already set the
 * knobs in @p hier.
 */
class CrossCoreHarness : public ProbeHarness
{
  public:
    /** Shared-level contention defaults for the Occupancy kind. */
    static constexpr Tick kDefaultLlcPortBusy = 2;
    static constexpr unsigned kDefaultLlcMshrs = 8;

    CrossCoreHarness(CrossCoreAttackParams params,
                     SchemeKind victim_scheme,
                     CoreConfig core = CoreConfig{},
                     HierarchyConfig hier = HierarchyConfig::small());

    void prepare(unsigned secret, NoiseModel *noise = nullptr) override;
    ProbeTrialOutcome runTrial() override;

    ProbeCalibration calibrate(std::uint64_t min_gap = 16)
    {
        return ProbeHarness::calibrate(min_gap);
    }

    System &system() { return sys_; }

  protected:
    /** Builds a channel's attack against the system's hierarchy. */
    using AttackBuilder = std::function<ProbeAttack(const Hierarchy &)>;

    /** @p hier already holds the defaults the channel kind needs. */
    CrossCoreHarness(SchemeKind victim_scheme, const CoreConfig &core,
                     const HierarchyConfig &hier,
                     const AttackBuilder &build);

  private:
    PipelineEngine &victimEngine() override { return sys_.core(0); }

    System sys_;
    ProbeAttack atk_;
};

/** Cross-core channel configuration. */
struct CrossCoreChannelConfig : ProbeChannelConfig
{
    CrossCoreAttackParams attack;
};

/** Transmit @p bits over the cross-core channel against cfg.scheme
 *  (ProbeHarness::transmit()). */
ProbeChannelResult
runCrossCoreChannel(const std::vector<std::uint8_t> &bits,
                    const CrossCoreChannelConfig &cfg);

} // namespace specint

#endif // SPECINT_ATTACK_CROSS_CORE_PROBE_HH
