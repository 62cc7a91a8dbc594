/**
 * @file
 * SMT fetch arbitration implementation: round-robin rotation and
 * ICOUNT selection with rotating tie-break.
 */

#include "smt/fetch_arbiter.hh"

namespace specint
{

int
FetchArbiter::pick(const std::vector<Candidate> &candidates)
{
    const unsigned n = static_cast<unsigned>(candidates.size());
    if (n == 0)
        return -1;

    int winner = -1;
    if (policy_ == FetchPolicy::RoundRobin) {
        for (unsigned k = 0; k < n; ++k) {
            const unsigned t = (rrNext_ + k) % n;
            if (candidates[t].fetchable) {
                winner = static_cast<int>(t);
                break;
            }
        }
    } else { // ICount
        for (unsigned k = 0; k < n; ++k) {
            const unsigned t = (rrNext_ + k) % n;
            if (!candidates[t].fetchable)
                continue;
            if (winner < 0 ||
                candidates[t].icount <
                    candidates[static_cast<unsigned>(winner)].icount) {
                winner = static_cast<int>(t);
            }
        }
    }

    if (winner >= 0)
        rrNext_ = (static_cast<unsigned>(winner) + 1) % n;
    return winner;
}

} // namespace specint
