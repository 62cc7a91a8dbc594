/**
 * @file
 * Sibling-thread (SMT) interference probe and contention channel.
 *
 * The paper's attacker placements (§2.1) include SameThread/SMT: the
 * attacker runs on the victim's sibling hardware thread and shares the
 * core's execution ports and L1-D MSHRs. Unlike the cross-core PoCs
 * (§4), no cache state is involved at all — the receiver *is* the
 * shared pipeline resource:
 *
 *   Port channel: a mis-speculated victim gadget (transmitter load
 *     whose latency is secret-dependent, feeding a VSQRTPD chain)
 *     occupies the non-pipelined port-0 unit iff the transmitter hit.
 *     The probe thread issues its own stream of VSQRTPD ops, which
 *     wait every cycle the sibling holds port 0.
 *
 *   MSHR channel: the victim gadget issues M loads to lines that are
 *     distinct iff secret=1 (G^D_MSHR's address pattern, Fig. 4),
 *     occupying 1 or M of the shared MSHRs. The probe streams loads to
 *     its own lines and observes the sibling's MSHR occupancy through
 *     its allocation stalls.
 *
 * The decoded score is one of the probe thread's sibling-occupancy
 * integrals over the run: ThreadStats::siblingPort0Cycles, the cycles
 * port 0 was busy with a sibling's op (Port), or
 * ThreadStats::siblingMshrCycles, the MSHR entry-cycles siblings held
 * (Mshr) — the simulator-level proxy for the latency
 * self-measurements a real sibling attacker performs. The engine keeps
 * both exact over fast-forwarded spans, so trials skip dead cycles
 * like any other run.
 *
 * Because invisible-speculation schemes hide *cache* state, not
 * execution-resource usage, this channel pierces every scheme that
 * lets speculative instructions execute (InvisiSpec, SafeSpec,
 * MuonTrap, DoM on L1 hits, even the paper's §5.4 advanced defense,
 * whose rules are thread-local); only fence-style defenses that keep
 * the gadget from issuing close it.
 */

#ifndef SPECINT_ATTACK_SMT_PROBE_HH
#define SPECINT_ATTACK_SMT_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attack/probe_channel.hh"
#include "cpu/pipeline/engine.hh"

namespace specint
{

/** Which shared resource carries the cross-thread signal. */
enum class SmtChannelKind : std::uint8_t { Port, Mshr };

std::string smtChannelKindName(SmtChannelKind k);

/** Victim-gadget and probe tuning knobs. */
struct SmtAttackParams
{
    SmtChannelKind kind = SmtChannelKind::Port;
    /** Branch-predicate chase depth (LLC-warm links): sets the squash
     *  time and thereby the width of the contention window. */
    unsigned predicateDepth = 2;
    /** Victim VSQRTPD chain length (Port). */
    unsigned gadgetLen = 8;
    /** Victim gadget loads, should equal the L1-D MSHR count (Mshr). */
    unsigned mshrLoads = 10;
    /** Probe stream length (VSQRTPD ops / distinct-line loads). */
    unsigned probeOps = 48;
};

/** An SMT attack: the victim runs on thread 0, the probe on thread 1,
 *  and both share the core's private caches. */
struct SmtAttack : ProbeAttack
{
    SmtAttackParams params;
};

/** Build the victim/probe program pair for @p params. */
SmtAttack buildSmtAttack(const SmtAttackParams &params);

/** @name The shared types under the names perfbench/ compiles against. */
/// @{
using SmtTrialOutcome = ProbeTrialOutcome;
using SmtCalibration = ProbeCalibration;
/// @}

/**
 * Trial harness for the SMT contention channel: owns the hierarchy,
 * memory and a two-thread PipelineEngine (victim scheme on thread 0, an
 * undefended probe on thread 1), and runs prepare/run/score trials.
 */
class SmtProbeHarness final : public ProbeHarness
{
  public:
    /** @param smt thread count is forced to 2; sharing policies are
     *  honoured. */
    SmtProbeHarness(SmtAttack attack, SchemeKind victim_scheme,
                    CoreConfig core = CoreConfig{},
                    SmtConfig smt = SmtConfig{},
                    HierarchyConfig hier = HierarchyConfig::small());

    void prepare(unsigned secret, NoiseModel *noise = nullptr) override;
    ProbeTrialOutcome runTrial() override;

    ProbeCalibration calibrate(std::uint64_t min_gap = 8)
    {
        return ProbeHarness::calibrate(min_gap);
    }

    PipelineEngine &core() { return smt_; }

  private:
    PipelineEngine &victimEngine() override { return smt_; }

    SmtAttack atk_;
    Hierarchy hier_;
    MainMemory mem_;
    PipelineEngine smt_;
};

/** SMT contention channel configuration. */
struct SmtChannelConfig : ProbeChannelConfig
{
    /** Sibling-thread attacks need no prime/probe or eviction sets, so
     *  the per-trial overhead is small; the port channel's gap is
     *  narrower than the two-core channels'. */
    SmtChannelConfig()
    {
        perTrialOverheadCycles = 2000;
        minCalibrationGap = 8;
    }

    SmtAttackParams attack;
    /** Sharing policies for the run (numThreads forced to 2). */
    SmtConfig smt;
};

/** Transmit @p bits over the SMT contention channel against
 *  cfg.scheme (ProbeHarness::transmit()). */
ProbeChannelResult
runSmtContentionChannel(const std::vector<std::uint8_t> &bits,
                        const SmtChannelConfig &cfg);

} // namespace specint

#endif // SPECINT_ATTACK_SMT_PROBE_HH
