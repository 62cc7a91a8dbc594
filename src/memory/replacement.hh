/**
 * @file
 * Cache replacement: the two rules the modelled caches use.
 *
 * The private levels (L1-I, L1-D, L2) use true LRU. The LLC uses the
 * Kaby Lake policy QLRU_H11_M1_R0_U0 ("quad-age LRU", a 2-bit RRIP
 * variant, in the nanoBench/CacheQuery naming the paper uses), whose
 * state the receiver (paper §4.2.2) decodes the *order* of two LLC
 * accesses from:
 *
 *  - H11  hit promotion: age 3 -> 1, age 2 -> 1, age 1 -> 0, 0 -> 0.
 *  - M1   insertion: new lines are inserted with age 1.
 *  - R0   eviction: if the set has an invalid way use the leftmost one;
 *         otherwise evict the leftmost way whose age is 3.
 *  - U0   age update: when an eviction is needed and no way has age 3,
 *         increment the age of every line (saturating at 3) until a
 *         candidate exists.
 *
 * Each way carries one replacement word: its 2-bit age under QLRU, or
 * under LRU the value of the array's clock at its last touch. The
 * cache owns validity: replVictim() is consulted only when every way
 * of the set is valid, and a fill always writes the way's word, so an
 * invalid way's word is never read.
 */

#ifndef SPECINT_MEMORY_REPLACEMENT_HH
#define SPECINT_MEMORY_REPLACEMENT_HH

#include <cstdint>

namespace specint
{

/** Largest associativity a cache array supports: the 16-way LLC
 *  slices of HierarchyConfig::small() and kabyLake().
 *  HierarchyConfig::validate() rejects anything wider and the
 *  CacheArray constructor panics on it. */
constexpr unsigned kMaxCacheWays = 16;

/** Replacement rule of one cache array. */
enum class ReplKind
{
    Qlru, ///< QLRU_H11_M1_R0_U0 (the LLC)
    Lru,  ///< true LRU (the private levels)
};

/**
 * A line was filled into @p way of the set whose replacement words
 * start at @p row. @p clock is the array's LRU clock.
 */
inline void
replInsert(ReplKind kind, std::uint64_t *row, unsigned way,
           std::uint64_t &clock)
{
    row[way] = kind == ReplKind::Lru ? ++clock : 1;
}

/** An access hit @p way (also DoM's deferred touch). */
inline void
replHit(ReplKind kind, std::uint64_t *row, unsigned way,
        std::uint64_t &clock)
{
    if (kind == ReplKind::Lru)
        row[way] = ++clock;
    else
        row[way] = row[way] > 1 ? 1 : 0;
}

/**
 * The way to evict from a full set of @p ways ways. LRU: the first way
 * with the oldest stamp. QLRU: the leftmost way of age 3 (R0); while
 * there is none, every line ages by one (U0; none is at 3, so none
 * saturates).
 */
inline unsigned
replVictim(ReplKind kind, std::uint64_t *row, unsigned ways)
{
    if (kind == ReplKind::Lru) {
        // The constant bound lets the compiler unroll the scan, which
        // measured ~20% faster for an 8-way fill than a loop to ways.
        unsigned victim = 0;
        for (unsigned w = 1; w < kMaxCacheWays; ++w) {
            if (w == ways)
                break;
            if (row[w] < row[victim])
                victim = w;
        }
        return victim;
    }
    for (;;) {
        for (unsigned w = 0; w < ways; ++w)
            if (row[w] == 3)
                return w;
        for (unsigned w = 0; w < ways; ++w)
            ++row[w];
    }
}

} // namespace specint

#endif // SPECINT_MEMORY_REPLACEMENT_HH
