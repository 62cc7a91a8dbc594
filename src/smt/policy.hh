/**
 * @file
 * SMT resource-sharing and arbitration policies.
 *
 * The paper's interference attacks are defined over shared pipeline
 * resources (§2.1, §3.2); with SMT, a sibling hardware thread contends
 * for the very same structures. How much of each structure a thread
 * may occupy is a design point real cores differ on: ROB/RS/LQ/SQ are
 * statically partitioned on some designs and competitively shared on
 * others, while execution ports and MSHRs are always fully shared.
 * These enums parameterise that choice for every finite structure the
 * SMT core models.
 */

#ifndef SPECINT_SMT_POLICY_HH
#define SPECINT_SMT_POLICY_HH

#include <string>

#include "sim/types.hh"

namespace specint
{

/** How a finite structure is divided between SMT threads. */
enum class SharingPolicy : std::uint8_t
{
    /** Each thread owns a fixed capacity/numThreads share. */
    Partitioned,
    /** First come, first served over the whole capacity. */
    Shared,
};

/** Which thread the frontend fetches for each cycle. */
enum class FetchPolicy : std::uint8_t
{
    /** Alternate between fetchable threads. */
    RoundRobin,
    /** Fetch for the thread with the fewest in-flight instructions
     *  (decode queue + ROB), after Tullsen et al.'s ICOUNT. */
    ICount,
};

/** Static per-thread share of a partitioned structure. */
constexpr unsigned
partitionedShare(unsigned capacity, unsigned num_threads)
{
    return num_threads == 0 ? capacity : capacity / num_threads;
}

std::string fetchPolicyName(FetchPolicy p);

} // namespace specint

#endif // SPECINT_SMT_POLICY_HH
