/**
 * @file
 * Trial harness: runs one victim invocation of a sender program under
 * controlled initial state, and extracts the ordering/presence signal
 * from the visible LLC trace or from a receiver.
 *
 * A trial is the unit both the Table-1 matrix evaluator and the covert
 * channel build on:
 *   1. prepare(): initialise memory, flush/warm the agreed lines,
 *      (mis)train the victim's branch predictor.
 *   2. run(): execute the victim; optionally inject the attacker's
 *      fixed-time reference access (VD-AD/VI-AD) as a timed action
 *      on the core.
 *   3. read the verdict: order of the two monitored lines in the LLC
 *      access trace, or presence of the monitored I-line.
 */

#ifndef SPECINT_ATTACK_SENDER_HH
#define SPECINT_ATTACK_SENDER_HH

#include "attack/attacker.hh"
#include "attack/gadget.hh"
#include "cpu/core.hh"
#include "sim/noise.hh"

namespace specint
{

/** Outcome of one victim trial. */
struct TrialResult
{
    /** Victim ran to completion. */
    bool finished = false;
    /** Victim cycles consumed. */
    Tick cycles = 0;
    /** Trace index of the first visible LLC access to line A /
     *  monitored-first (SIZE_MAX if never). */
    std::size_t posFirst = SIZE_MAX;
    /** Trace index of the first visible LLC access to the second
     *  monitored line (B / I-line / attacker reference). */
    std::size_t posSecond = SIZE_MAX;
    /** Victim-time of the first monitored access (kTickMax if none). */
    Tick timeFirst = kTickMax;
    /** Presence orderings: is the target I-line in the LLC after the
     *  run? */
    bool targetPresent = false;

    /**
     * Ordering signal: 0 = monitored-first line accessed first (the
     * secret-0 order), 1 = second line first, -1 = undecidable.
     */
    int orderSignal() const;
};

class TrialHarness
{
  public:
    TrialHarness(Hierarchy &hier, MainMemory &mem, Core &victim,
                 AttackerAgent &attacker)
        : hier_(&hier), mem_(&mem), victim_(&victim),
          attacker_(&attacker)
    {}

    /**
     * Prepare state for one trial. Flushes/warms lines, initialises
     * memory, writes the secret, and (mis)trains the branch predictor
     * (training fails with the noise model's probability).
     * Ends with the LLC trace cleared.
     *
     * @param flush_monitored also flush the monitored lines; disable
     *        when a QlruReceiver's prime() manages them.
     */
    void prepare(const SenderProgram &sp, unsigned secret,
                 NoiseModel *noise = nullptr,
                 bool flush_monitored = true);

    /**
     * Run the victim. If @p ref_time is nonzero and the sender has a
     * reference address, the attacker's reference access is injected
     * at that victim cycle.
     */
    TrialResult run(const SenderProgram &sp, Tick ref_time = 0);

    /**
     * VD-AD/VI-AD calibration (what a real attacker does by sweeping
     * its reference delay): measure the monitored access time under
     * both secrets without a reference, and return the midpoint — or
     * 0 if the scheme shows no exploitable shift (|Δ| < 4 cycles).
     */
    Tick calibrateRefTime(const SenderProgram &sp);

    Core &victim() { return *victim_; }

  private:
    /** First monitored line for the sender's ordering. */
    Addr monitorFirst(const SenderProgram &sp) const;

    Hierarchy *hier_;
    MainMemory *mem_;
    Core *victim_;
    AttackerAgent *attacker_;
};

} // namespace specint

#endif // SPECINT_ATTACK_SENDER_HH
