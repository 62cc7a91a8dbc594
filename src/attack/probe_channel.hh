/**
 * @file
 * The victim/probe channel core every two-agent attack shares: the
 * SMT sibling-thread channels (smt_probe.hh), the cross-core shared-LLC
 * channels (cross_core_probe.hh) and the coherence/prefetch channels
 * (coherence_probe.hh).
 *
 * All of them follow one recipe (§2.1, §4): a mis-trained branch opens
 * a speculation window over a secret-dependent gadget, a probe agent
 * measures the interference the gadget causes, two known-secret runs
 * set a decode threshold, and each transmitted bit is a majority vote
 * over trials. This file owns the recipe's shared parts:
 *
 *   ProbeAttack — the victim/probe program pair plus every address a
 *     harness initialises, warms, flushes or primes before a trial;
 *   buildVictimPrefix() — the LLC-resident predicate chase, the
 *     mis-trained branch and the transient secret load every victim
 *     starts with;
 *   ProbeHarness — the prepare/run/score trial interface, with the one
 *     calibrate() and the one majority-vote transmit() on top of it.
 *
 * The substrates differ (sibling threads of one engine vs the two
 * cores of a System), so each harness keeps its own prepare() and
 * runTrial().
 */

#ifndef SPECINT_ATTACK_PROBE_CHANNEL_HH
#define SPECINT_ATTACK_PROBE_CHANNEL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "attack/channel.hh"
#include "cpu/program.hh"

namespace specint
{

class PipelineEngine;

/**
 * A fully described victim/probe attack: the victim (thread or core 0)
 * and probe (thread or core 1) programs plus every address the harness
 * must initialise, warm, flush or prime before each trial.
 */
struct ProbeAttack
{
    /** Starts with the victim prefix (buildVictimPrefix()). */
    Program victim;
    /** The attacker's own code, in a region of its own. */
    Program probe{0x500000};

    /** Word holding the secret bit (written per trial). */
    Addr secretSlot = kAddrInvalid;
    /** PC of the mis-trained victim branch. */
    std::uint32_t branchPc = 0;

    /** Memory words to initialise before every trial. */
    std::vector<std::pair<Addr, std::uint64_t>> memInit;
    /** Lines warmed into the victim's private caches. */
    std::vector<Addr> warmLines;
    /** Lines warmed into the probe core's private caches. */
    std::vector<Addr> probeWarmLines;
    /** Lines flushed from the whole hierarchy before a run. */
    std::vector<Addr> flushLines;
    /** Lines made LLC-resident only (flushed, then LLC-filled). */
    std::vector<Addr> llcWarmLines;
    /** Eviction-set lines direct-filled into the monitored LLC set
     *  during prime (also flushed first). */
    std::vector<Addr> primeLines;
    /** Labeled probe loads ("p0".."pN-1") whose latency the two-core
     *  decoder sums. */
    unsigned probeLoadCount = 0;
};

/** @name Registers of the victim prefix
 *  Gadgets and probes use register 4 and up. */
/// @{
constexpr RegId kIndexReg = 1;     ///< attacker-controlled index, init 5
constexpr RegId kPredicateReg = 2; ///< branch predicate (chase result)
constexpr RegId kSecretReg = 3;    ///< the transiently loaded secret
/// @}

/**
 * Emit the victim prefix into @p atk. Lays out @p predicate_depth
 * chase nodes and the secret slot as consecutive lines from @p base,
 * makes the chase LLC-resident and the secret slot victim-warm, and
 * starts atk.victim with the chase, the mis-trained branch, a Halt on
 * the architectural path and, at the branch target, the transient load
 * of the secret into kSecretReg. The caller appends its gadget and a
 * closing Halt.
 * @return the first line after the prefix's data.
 */
Addr buildVictimPrefix(ProbeAttack &atk, Addr base,
                       unsigned predicate_depth);

/** Outcome of one victim + probe trial. */
struct ProbeTrialOutcome
{
    /** The probe's interference score (its meaning is the channel's). */
    std::uint64_t score = 0;
    /** Total cycles of the run (slowest agent). */
    Tick cycles = 0;
    /** Both agents ran to Halt. */
    bool finished = false;
};

/** Decoder calibration: known-secret scores and the derived rule. */
struct ProbeCalibration
{
    std::uint64_t score0 = 0;
    std::uint64_t score1 = 0;
    double threshold = 0.0;
    /** secret=1 produces the higher score. */
    bool oneIsHigh = false;
    /** The two scores are separated enough to decode at all — false
     *  means the scheme closes this channel. */
    bool usable = false;

    /** Decode one trial score under this calibration. */
    unsigned decode(std::uint64_t score) const
    {
        const bool high = static_cast<double>(score) > threshold;
        return high == oneIsHigh ? 1u : 0u;
    }
};

/** Channel measurement plus the calibration it decoded with. */
struct ProbeChannelResult
{
    ChannelResult channel;
    ProbeCalibration calibration;
};

/** What every probe channel's configuration holds; each adds its
 *  attack parameters (and the SMT one its sharing policies). */
struct ProbeChannelConfig
{
    /** Victim scheme under attack (thread or core 0). */
    SchemeKind scheme = SchemeKind::InvisiSpecSpectre;
    unsigned trialsPerBit = 3;
    NoiseConfig noise = NoiseConfig::none();
    std::uint64_t seed = 42;
    /** Nominal clock for bits/s conversion (§4.1: 3.6 GHz). */
    double clockGhz = 3.6;
    /** Unmodelled per-trial overhead (victim synchronisation and, for
     *  the Prime+Probe kinds, eviction-set upkeep). */
    std::uint64_t perTrialOverheadCycles = 5000;
    /** Minimum calibration gap for the channel to count as open. */
    std::uint64_t minCalibrationGap = 16;
    /** Core structural configuration (both agents). */
    CoreConfig core;
    /** Cache-hierarchy configuration; the harness fills in the
     *  defaults its channel kind needs if they are unset. */
    HierarchyConfig hier = HierarchyConfig::small();
};

/**
 * A victim/probe trial harness: the victim runs under the scheme under
 * attack, the probe undefended. Each harness supplies prepare() and
 * runTrial() for its substrate; calibration and transmission are
 * shared.
 */
class ProbeHarness
{
  public:
    ProbeHarness() = default;
    ProbeHarness(const ProbeHarness &) = delete;
    ProbeHarness &operator=(const ProbeHarness &) = delete;
    virtual ~ProbeHarness() = default;

    /** Set up memory/cache/predictor state for one trial; @p noise
     *  may fail the branch mis-training. */
    virtual void prepare(unsigned secret, NoiseModel *noise = nullptr) = 0;

    /** Run victim + probe and extract the probe's score. */
    virtual ProbeTrialOutcome runTrial() = 0;

    /** Noiseless known-secret runs -> decode rule; the channel is open
     *  iff the two scores differ by at least @p min_gap. */
    ProbeCalibration calibrate(std::uint64_t min_gap);

    /**
     * Transmit @p bits: calibrate, then decode each bit as the
     * majority vote of cfg.trialsPerBit trials under cfg.noise. If
     * calibration is not usable (the defense closes the channel), no
     * trial runs and every bit decodes as 0.
     */
    ProbeChannelResult transmit(const std::vector<std::uint8_t> &bits,
                                const ProbeChannelConfig &cfg);

  protected:
    /** The engine running the victim; its noise model is the one the
     *  trials draw from. */
    virtual PipelineEngine &victimEngine() = 0;
};

} // namespace specint

#endif // SPECINT_ATTACK_PROBE_CHANNEL_HH
