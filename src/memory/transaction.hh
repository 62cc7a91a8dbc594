/**
 * @file
 * Vocabulary of the hierarchy's memory requests.
 *
 * A request is described by the Hierarchy entry point that takes it
 * (memory/hierarchy.hh): who issued it (core), what for (demand load or
 * store, prefetch, direct attacker probe), with what intent (read vs
 * write/ownership) and whether it changes cache state (access() vs
 * accessInvisible()). It walks the levels L1 -> L2 -> LLC -> memory,
 * and the caller receives the per-level outcome as a MemAccessResult.
 *
 * The split matters for the paper's argument: an invisible request
 * changes no cache state, but it is still a real request — it consumes
 * shared-level bandwidth, trains prefetchers (scheme permitting) and
 * interacts with the coherence layer. Hiding state is not the same as
 * hiding the request.
 */

#ifndef SPECINT_MEMORY_TRANSACTION_HH
#define SPECINT_MEMORY_TRANSACTION_HH

#include <cstdint>

#include "sim/types.hh"

namespace specint
{

/** Data vs instruction-fetch access. */
enum class AccessType : std::uint8_t { Data, Instr };

/** Read vs write (ownership-acquiring) intent of a request. */
enum class MemIntent : std::uint8_t
{
    Read,  ///< load: any MESI state with valid data serves it
    Write, ///< store: requires M state; remote sharers are invalidated
};

/** What initiated a request. */
enum class TxnSource : std::uint8_t
{
    Demand,   ///< pipeline load/store (also exposure/deferred updates)
    Prefetch, ///< issued by a core's hardware prefetcher
    Direct,   ///< direct LLC client (attacker agent; no private caches)
};

/**
 * Which level served a request. Values order from fastest to slowest,
 * so comparisons like `servedBy >= ServedBy::Llc` read naturally as
 * "the request travelled at least to the shared level".
 */
enum class ServedBy : std::uint8_t
{
    L1 = 1,
    L2 = 2,
    Llc = 3,
    Mem = 4,
};

/** Short display name ("L1", "L2", "LLC", "mem"). */
const char *servedByName(ServedBy s);

/** Result of one memory request. */
struct MemAccessResult
{
    /** Cycles from issue to data return. */
    Tick latency = 0;
    /** Level that served the data. */
    ServedBy servedBy = ServedBy::Mem;
    /** Shared-level queueing the request experienced (included in
     *  latency; 0 unless the contention model is enabled). */
    Tick queueDelay = 0;
    /** Cycles of coherence actions (remote M writeback, invalidation
     *  round trip) included in latency; 0 unless coherence is
     *  modelled. */
    Tick coherenceDelay = 0;
    /** Remote private copies invalidated by this request (write
     *  intent under the coherence model). */
    unsigned invalidations = 0;
};

} // namespace specint

#endif // SPECINT_MEMORY_TRANSACTION_HH
