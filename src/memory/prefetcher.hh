/**
 * @file
 * Per-core next-line hardware prefetcher.
 *
 * The prefetcher observes the demand stream of one core's private
 * hierarchy and proposes prefetch candidates; the Hierarchy turns the
 * candidates into real prefetch requests that walk the shared
 * levels (filling L2 and the LLC, occupying slice ports and shared
 * MSHRs) exactly like demand traffic. A demand access to line X that
 * misses the private levels trains it and prefetches X+1..X+degree.
 *
 * Why this is an attack surface (the paper's argument, lifted to
 * prefetching): *training is a side effect of making a request*.
 * Invisible-speculation schemes suppress the cache-state changes of a
 * speculative load, but the request still leaves the core, the
 * prefetcher still observes it — and the prefetches it triggers are
 * ordinary visible requests. A mis-speculated (later squashed)
 * load can therefore deposit an attacker-observable line in the shared
 * LLC through the prefetcher even under InvisiSpec/SafeSpec/MuonTrap
 * (attack/coherence_probe.hh, PrefetchTraining kind). Whether a
 * scheme's speculative requests train at all is a declared policy in
 * its row of the scheme table (spec/scheme.cc, trainsPrefetcher()).
 *
 * Off by default: PrefetchKind::None issues nothing and trains
 * nothing, preserving every pre-existing experiment bit-for-bit.
 */

#ifndef SPECINT_MEMORY_PREFETCHER_HH
#define SPECINT_MEMORY_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace specint
{

/** Prefetcher design selector. */
enum class PrefetchKind : std::uint8_t
{
    None,     ///< no prefetcher (the pre-refactor behaviour)
    NextLine, ///< sequential next-line(s) on a private miss
};

/** Prefetcher parameters (HierarchyConfig::prefetch). */
struct PrefetchParams
{
    PrefetchKind kind = PrefetchKind::None;
    /** Lines prefetched ahead per trigger. */
    unsigned degree = 1;
};

/** Per-core prefetcher counters. */
struct PrefetchStats
{
    /** Demand accesses that trained the prefetcher. */
    std::uint64_t trained = 0;
    /** Prefetch requests issued into the hierarchy. */
    std::uint64_t issued = 0;
    /** Candidates dropped because the line was already private. */
    std::uint64_t dropped = 0;
    /** Issued prefetches that had to fill the LLC from memory. */
    std::uint64_t llcFills = 0;
};

/**
 * One core's prefetch engine (see file comment). Purely a training /
 * candidate-generation model: the Hierarchy issues the candidates as
 * requests and keeps the stats' issued/fill counters.
 */
class Prefetcher
{
  public:
    explicit Prefetcher(PrefetchParams params);

    const PrefetchParams &params() const { return params_; }

    /**
     * Observe one demand access (line-aligned internally) and append
     * the proposed prefetch line addresses to @p out (not cleared).
     * @p miss is true when the access missed the private levels.
     */
    void observe(Addr addr, bool miss, std::vector<Addr> &out);

    /** Zero the stats (power-on reset). */
    void reset() { stats_ = PrefetchStats{}; }

    PrefetchStats &stats() { return stats_; }
    const PrefetchStats &stats() const { return stats_; }

  private:
    PrefetchParams params_;
    PrefetchStats stats_;
};

} // namespace specint

#endif // SPECINT_MEMORY_PREFETCHER_HH
