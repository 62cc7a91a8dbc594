/**
 * @file
 * MESI coherence directory for the private cache levels.
 *
 * The directory tracks, per cache line, which cores hold a private
 * (L1/L2) copy and in what MESI state: Modified (sole dirty owner),
 * Exclusive (sole clean owner), Shared, Invalid. It is consulted by
 * the Hierarchy's request walks whenever a request reaches the
 * shared level, and by write-intent requests at any level (a store
 * to a Shared line must invalidate remote sharers even on an L1 hit).
 *
 * Why this matters for the paper: coherence transactions are a side
 * effect of *making a request*, not of retiring it. A speculative
 * store's read-for-ownership invalidates remote Shared copies the
 * moment it is issued; if the store is later squashed, the
 * invalidations are not undone — a remote attacker that held the line
 * in S observes its copy vanish (attack/coherence_probe.hh). Invisible
 * speculation hides cache-state changes in the *requester's* caches;
 * it does not hide what the request did to everyone else's.
 *
 * The directory is conservative: cores drop lines from their private
 * arrays silently (plain evictions do not notify it), so the sharer
 * set may be a superset of the true holders. Invalidation messages to
 * cores that no longer hold the line are harmless no-ops — exactly the
 * over-invalidation real sparse directories exhibit.
 *
 * Scope: the *data* stream only. Instruction fetches never consult
 * the directory (as on real hardware, where the I-side is not kept
 * MESI-coherent and self-modifying code needs explicit
 * synchronisation), so a line reached through both an I-fetch and a
 * data access could hold a stale unified-L2 copy across a remote
 * write. Every workload and attack in this repository keeps code and
 * data in disjoint address ranges, so the case cannot arise here;
 * revisit this if that ever changes.
 *
 * All bookkeeping is gated behind HierarchyConfig::coherence.enabled;
 * with the knob off (the default) the directory is never consulted and
 * every pre-existing experiment is bit-identical.
 */

#ifndef SPECINT_MEMORY_COHERENCE_HH
#define SPECINT_MEMORY_COHERENCE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace specint
{

/** MESI state of one core's private copy of a line. */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Coherence model parameters (HierarchyConfig::coherence). */
struct CoherenceParams
{
    /** Master switch; false preserves the exact pre-coherence
     *  behaviour of every experiment. */
    bool enabled = false;
    /** Cycles a write-intent request waits for the invalidation round
     *  trip when remote sharers exist (acks collected in parallel). */
    Tick invalidateLatency = 24;
    /** Cycles a read adds when a remote Modified owner must write the
     *  dirty line back before the data can be served. */
    Tick writebackLatency = 40;
};

/** Per-core coherence traffic counters. */
struct CoherenceStats
{
    /** Remote copies this core's requests invalidated. */
    std::uint64_t invalidationsSent = 0;
    /** This core's private copies invalidated by remote writers. */
    std::uint64_t invalidationsReceived = 0;
    /** This core's M/E lines demoted to Shared by remote readers. */
    std::uint64_t downgradesReceived = 0;
    /** Modified-ownership acquisitions (RFOs) this core performed. */
    std::uint64_t upgrades = 0;
    /** Exclusive (sole clean owner) grants this core received. */
    std::uint64_t exclusiveGrants = 0;
};

/**
 * The per-line MESI directory shared by all cores (see file comment).
 * Clients are identified by CoreId; the Hierarchy passes its full
 * client count (cores + the spare direct-LLC id).
 */
class CoherenceDirectory
{
  public:
    CoherenceDirectory(unsigned clients, CoherenceParams params);

    /** Outcome of a read-intent consult. */
    struct ReadOutcome
    {
        /** Extra cycles (remote-M writeback) to add to the request. */
        Tick extraLatency = 0;
        /** State granted to the requester (Invalid when join=false). */
        MesiState granted = MesiState::Invalid;
    };

    /**
     * Read-intent consult for @p core. Demotes a remote Modified or
     * Exclusive owner to Shared (charging the writeback latency for a
     * dirty owner) and, when @p join is true, records the requester as
     * a sharer — Exclusive if it is now the sole holder, Shared
     * otherwise. Direct LLC clients pass join=false: they have no
     * private caches to track.
     */
    ReadOutcome read(CoreId core, Addr line, bool join);

    /** Outcome of a write-intent consult. */
    struct WriteOutcome
    {
        /** Extra cycles (invalidation round trip) for the request. */
        Tick extraLatency = 0;
        /** Remote cores whose copies must be invalidated. The caller
         *  (Hierarchy) removes the line from their private arrays. */
        std::vector<CoreId> invalidate;
    };

    /**
     * Write-intent consult: @p core acquires Modified ownership.
     * Remote sharers are dropped from the directory and returned for
     * the caller to invalidate; a silent Exclusive->Modified upgrade
     * costs nothing. When @p take_ownership is false the requester's
     * own upgrade is deferred (the InvisiSpec-style speculative RFO:
     * the invalidations still go out — that is the leak — but the
     * requester's M state waits for the retirement-time write).
     */
    WriteOutcome write(CoreId core, Addr line, bool take_ownership = true);

    /** MESI state of @p core's private copy of @p line. */
    MesiState state(CoreId core, Addr line) const;

    /** Does a core other than @p core hold @p line in Modified
     *  state? (Latency peek for invisible requests.) */
    bool remoteModified(CoreId core, Addr line) const;

    /** Cores currently recorded as holding @p line. */
    std::vector<CoreId> sharers(Addr line) const;

    /** Drop every core's copy (flush / inclusive-LLC eviction).
     *  Single-core private evictions are deliberately silent — the
     *  conservative-sharer-set design in the file comment. */
    void dropLine(Addr line);

    /** Clear all line state and stats. */
    void reset();

    /** Per-core coherence traffic counters. */
    const CoherenceStats &stats(CoreId core) const
    {
        return stats_[core];
    }

  private:
    /** Directory entry: sharer set plus owner state for one line. */
    struct LineInfo
    {
        std::vector<CoreId> holders;
        /** Valid only when modified/exclusive is set. */
        CoreId owner = 0;
        bool modified = false;
        bool exclusive = false;
    };

    static bool holds(const LineInfo &info, CoreId core);

    CoherenceParams params_;
    std::unordered_map<Addr, LineInfo> lines_;
    std::vector<CoherenceStats> stats_;
};

} // namespace specint

#endif // SPECINT_MEMORY_COHERENCE_HH
