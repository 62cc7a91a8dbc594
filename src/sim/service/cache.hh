/**
 * @file
 * Content-addressed on-disk result cache for sweep points.
 *
 * Deterministic per-point seeding makes every point's Row list a pure
 * function of (scenario, semantic options, point index, point seed,
 * code version). The cache exploits that: the canonical key string
 * serializes exactly those inputs (plus the point's axis values, for
 * human debuggability), is hashed with 64-bit FNV-1a twice (two offset
 * bases -> 128 bits of address space), and the entry lands in
 * objects/<32 hex>: one flat directory, so a store creates a file and
 * no directory. The entry's bytes are encodeEntry()'s (wire.hh).
 *
 * Safety over speed on the read path: a hit is only served when the
 * entry parses, its embedded canonical key string matches the probe
 * byte-for-byte (hash collisions cannot alias), and its payload
 * checksum verifies (truncated/corrupted files are recomputed, not
 * trusted). Writes are atomic (tmp file + rename), so a crashed or
 * interrupted run never publishes a partial entry, and runs sharing
 * one directory need no lock.
 */

#ifndef SPECINT_SIM_SERVICE_CACHE_HH
#define SPECINT_SIM_SERVICE_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment/sweep.hh"
#include "sim/experiment/value.hh"
#include "sim/service/wire.hh"

namespace specint::service
{

/** A fully resolved cache key: canonical string + 128-bit address. */
struct CacheKey
{
    std::string canonical;
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    /** 32 hex chars (hi then lo). */
    std::string hex() const;
};

/**
 * Build the key for one sweep point. @p point supplies the axis
 * values; @p point_seed is the SplitMix64 split of (seed, index) and
 * is included so the key self-describes the entire seed derivation.
 */
CacheKey makeCacheKey(const JobSpec &spec, std::size_t point_index,
                      std::uint64_t point_seed,
                      const experiment::SweepPoint &point,
                      const std::string &fingerprint);

/** Hit/miss counters for one cache handle's lifetime. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    /** Entries found but rejected (parse/key/checksum failure). */
    std::uint64_t corrupt = 0;
};

/** On-disk result cache rooted at one directory. All methods are
 *  thread-safe: the in-process parallel runner stores from every
 *  worker thread. */
class ResultCache
{
  public:
    /**
     * Open (creating if needed) the cache at @p dir. On any
     * filesystem error the cache degrades to disabled: lookups miss,
     * stores drop, and the error is reported once on stderr.
     */
    explicit ResultCache(std::string dir);

    bool enabled() const { return enabled_; }
    const std::string &dir() const { return dir_; }

    /**
     * Look up @p key. On a verified hit fills @p rows / @p legacy and
     * returns true. Corrupted or mismatching entries count as misses
     * (and bump stats().corrupt).
     */
    bool lookup(const CacheKey &key,
                std::vector<experiment::Row> &rows,
                std::string &legacy);

    /** Persist a computed point (atomic tmp+rename; best-effort). */
    void store(const CacheKey &key,
               const std::vector<experiment::Row> &rows,
               const std::string &legacy);

    CacheStats stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

    /** Does nothing: the cache keeps no index. perfbench's
     *  sweep_replay (perfbench/src/sweep_replay.cc) still calls it. */
    void flushIndex(const std::string &) {}

  private:
    std::string entryPath(const CacheKey &key) const;

    std::string dir_;
    bool enabled_ = false;
    mutable std::mutex mutex_;
    CacheStats stats_;
};

} // namespace specint::service

#endif // SPECINT_SIM_SERVICE_CACHE_HH
