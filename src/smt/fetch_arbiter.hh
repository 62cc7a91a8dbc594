/**
 * @file
 * SMT fetch arbitration.
 *
 * One thread owns the fetch stage each cycle. RoundRobin alternates
 * between fetchable threads; ICount (Tullsen et al., ISCA'96) grants
 * the thread with the fewest in-flight instructions, which naturally
 * throttles a thread stalled on long-latency misses — including a
 * thread whose RS is congested by a mis-speculated gadget, making the
 * arbitration policy itself part of the interference surface.
 */

#ifndef SPECINT_SMT_FETCH_ARBITER_HH
#define SPECINT_SMT_FETCH_ARBITER_HH

#include <vector>

#include "smt/policy.hh"

namespace specint
{

class FetchArbiter
{
  public:
    /** Per-thread arbitration input for one cycle. */
    struct Candidate
    {
        /** The thread's frontend could make progress this cycle. */
        bool fetchable = false;
        /** In-flight instructions (decode queue + ROB), for ICount. */
        unsigned icount = 0;
    };

    explicit FetchArbiter(FetchPolicy policy) : policy_(policy) {}

    /**
     * Pick the thread that fetches this cycle, or -1 if no thread is
     * fetchable. Ties (ICount) and rotation (RoundRobin) are broken by
     * a rotating priority pointer so equally-eligible threads share
     * the stage fairly.
     */
    int pick(const std::vector<Candidate> &candidates);

    void reset() { rrNext_ = 0; }

  private:
    FetchPolicy policy_;
    unsigned rrNext_ = 0;
};

} // namespace specint

#endif // SPECINT_SMT_FETCH_ARBITER_HH
