/**
 * @file
 * Set-associative cache array.
 *
 * CacheArray models the tag/state array of one cache (or one LLC
 * slice): lookup, replacement-updating touch, fill with victim
 * selection, invalidation (clflush analogue) and *deferred* touches.
 * Deferred touches support Delay-on-Miss: a speculative L1 hit returns
 * data but its replacement update is buffered and only applied when
 * the load becomes non-speculative (or dropped on squash).
 *
 * Timing lives in Hierarchy; CacheArray is purely state.
 */

#ifndef SPECINT_MEMORY_CACHE_HH
#define SPECINT_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "memory/replacement.hh"
#include "sim/types.hh"

namespace specint
{

/** Static geometry + replacement rule of one cache array. */
struct CacheGeometry
{
    std::string name = "cache";
    unsigned sets = 64;
    unsigned ways = 8;
    ReplKind policy = ReplKind::Lru;
};

/** Snapshot of one way used by tests and the Fig. 8 reproduction. */
struct WaySnapshot
{
    bool valid = false;
    Addr lineAddr = kAddrInvalid;
    /** QLRU age (0 in an LRU array). */
    std::uint8_t age = 0;
};

/**
 * One set-associative tag array.
 *
 * Addresses handed in are full byte addresses; the array internally
 * works on line numbers. The set count is a power of two (the
 * constructor panics otherwise), so the set index is the line number's
 * low bits: lineNumber & (sets - 1). An LLC slice is indexed the same
 * way; Hierarchy picks the slice by a hash of the whole line number
 * (Hierarchy::llcSliceIndex).
 */
class CacheArray
{
  public:
    explicit CacheArray(CacheGeometry geo);

    /** Set index for an address. */
    unsigned setIndex(Addr addr) const;

    /** Is the line present? No state change. */
    bool contains(Addr addr) const;

    /**
     * Access the line: on hit, apply the replacement update and return
     * true; on miss return false (no fill — caller decides).
     */
    bool touch(Addr addr);

    /**
     * Fill the line (must not already be present), selecting a victim
     * if the set is full.
     * @return the evicted line address, or kAddrInvalid if none.
     */
    Addr fill(Addr addr);

    /** Remove the line if present. @return true if it was present. */
    bool invalidate(Addr addr);

    /** Drop every line (power-on reset). */
    void reset();

    /**
     * Apply a replacement update for a line touched speculatively in
     * the past (DoM's deferred update). No-op if the line has since
     * been evicted.
     */
    void deferredTouch(Addr addr);

    /** Per-way snapshot of one set, for tests and Fig. 8. */
    std::vector<WaySnapshot> snapshotSet(unsigned set) const;

    /** Number of valid lines in a set. */
    unsigned occupancy(unsigned set) const;

  private:
    struct Line
    {
        bool valid = false;
        Addr lineNum = 0;
    };

    /** Find the way holding @p line_num in @p set, or -1. */
    int findWay(unsigned set, Addr line_num) const;
    /** Find the leftmost invalid way in @p set, or -1. */
    int findFree(unsigned set) const;

    /** First replacement word of @p set's row. */
    std::uint64_t *replRow(unsigned set)
    {
        return &repl_[static_cast<std::size_t>(set) * geo_.ways];
    }

    CacheGeometry geo_;
    std::vector<Line> lines_;          // sets * ways, row-major
    std::vector<std::uint64_t> repl_;  // one word per way, like lines_
    /** LRU clock: every LRU insert or hit stamps its way with ++clock_. */
    std::uint64_t clock_ = 0;
};

} // namespace specint

#endif // SPECINT_MEMORY_CACHE_HH
