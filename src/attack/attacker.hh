/**
 * @file
 * Cross-core attacker agent (the receiver's execution vehicle).
 *
 * Models the attacker thread of the CrossCore model (§2.1): it runs on
 * another physical core and interacts with the victim only through the
 * shared LLC. Its primitives are the ones the PoCs use (§4.1):
 * clflush of shared lines, and timed loads classified as LLC hit or
 * miss by a latency threshold. Accesses go directly to the LLC
 * (accessDirect) — modelling a receiver that flushes its own private
 * copies between rounds, as real Flush+Reload/Prime+Probe code does.
 */

#ifndef SPECINT_ATTACK_ATTACKER_HH
#define SPECINT_ATTACK_ATTACKER_HH

#include "memory/hierarchy.hh"
#include "sim/types.hh"

namespace specint
{

class AttackerAgent
{
  public:
    explicit AttackerAgent(Hierarchy &hier, CoreId id = 1)
        : hier_(&hier), id_(id)
    {}

    CoreId id() const { return id_; }

    /** Timed access; advances the attacker's local clock. */
    MemAccessResult access(Addr addr);

    /** Timed access classified against the LLC-hit threshold. */
    bool isLlcHit(Addr addr);

    /** clflush analogue (shared memory / own memory). */
    void flush(Addr addr) { hier_->flushLine(addr); }

    /** Attacker-local time (cycles spent issuing accesses). */
    Tick now() const { return now_; }
    void resetClock() { now_ = 0; }

  private:
    Hierarchy *hier_;
    CoreId id_;
    Tick now_ = 0;
};

} // namespace specint

#endif // SPECINT_ATTACK_ATTACKER_HH
