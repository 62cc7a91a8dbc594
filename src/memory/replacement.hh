/**
 * @file
 * Cache replacement policies.
 *
 * The attack's receiver (paper §4.2.2) decodes the *order* of two LLC
 * accesses out of the replacement state, so the policy model must be
 * faithful. The centerpiece is a parameterised QLRU ("quad-age LRU", a
 * 2-bit SRRIP variant) implementing exactly the nanoBench/CacheQuery
 * naming scheme the paper uses to describe the Kaby Lake LLC policy
 * QLRU_H11_M1_R0_U0:
 *
 *  - Hxy  hit promotion: age 3 -> x?1:0-ish mapping; for H11 a hit
 *         promotes age 3 -> 1, age 2 -> 1, age 1 -> 0, age 0 -> 0.
 *  - Mn   insertion: new lines are inserted with age n.
 *  - R0   eviction: if the set has an invalid way use the leftmost one;
 *         otherwise evict the leftmost way whose age is 3.
 *  - U0   age update: when an eviction is needed and no way has age 3,
 *         increment the age of every line (saturating at 3) until a
 *         candidate exists.
 *
 * Textbook policies (true LRU, Tree-PLRU, NRU, SRRIP, Random) are also
 * provided both as baselines and for the property tests that check
 * which policies are order-sensitive (non-commutative) and therefore
 * usable as receivers.
 */

#ifndef SPECINT_MEMORY_REPLACEMENT_HH
#define SPECINT_MEMORY_REPLACEMENT_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>

#include "sim/rng.hh"

namespace specint
{

/** Largest associativity a cache array supports: the 16-way LLC
 *  slices of HierarchyConfig::small() and kabyLake().
 *  HierarchyConfig::validate() rejects anything wider. */
constexpr unsigned kMaxCacheWays = 16;

/**
 * A per-way field of one set, stored inline: a fixed-capacity array of
 * kMaxCacheWays slots of which the first size() are in use. Building a
 * cache array then costs one allocation for all its sets instead of
 * several per set.
 */
template <typename T>
class WayArray
{
  public:
    /** Set the size to @p n and every element to @p value. */
    void
    assign(unsigned n, T value)
    {
        size_ = static_cast<std::uint8_t>(n);
        std::fill_n(v_.begin(), n, value);
    }

    /** Replace the contents (tests set up states this way). */
    WayArray &
    operator=(std::initializer_list<T> init)
    {
        size_ = static_cast<std::uint8_t>(
            std::min<std::size_t>(init.size(), kMaxCacheWays));
        std::copy_n(init.begin(), size_, v_.begin());
        return *this;
    }

    unsigned size() const { return size_; }
    T &operator[](unsigned i) { return v_[i]; }
    const T &operator[](unsigned i) const { return v_[i]; }

  private:
    std::array<T, kMaxCacheWays> v_{};
    std::uint8_t size_ = 0;
};

/** Per-set replacement metadata shared by all policies. */
struct SetReplState
{
    /** Small per-way age/RRPV/use-bit field (meaning is per-policy). */
    WayArray<std::uint8_t> age;
    /** Per-way last-access stamp (true LRU). */
    WayArray<std::uint64_t> stamp;
    /** Tree-PLRU direction bits (ways-1 internal nodes). */
    WayArray<std::uint8_t> treeBits;
    /** Monotonic per-set access counter backing the LRU stamps. */
    std::uint64_t tick = 0;

    explicit SetReplState(unsigned ways = 0) { resize(ways); }
    /** Reset to @p ways empty ways (at most kMaxCacheWays). */
    void resize(unsigned ways);
};

/**
 * Replacement policy strategy interface.
 *
 * The cache owns validity; victim() is only consulted when every way in
 * the set is valid. Policies may mutate ages inside victim() (QLRU U0).
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Name used in reports ("qlru_h11_m1_r0_u0", "lru", ...). */
    virtual std::string name() const = 0;

    /** A new line was filled into @p way. */
    virtual void onInsert(SetReplState &set, unsigned way) = 0;

    /** An access hit @p way. */
    virtual void onHit(SetReplState &set, unsigned way) = 0;

    /** Choose the way to evict; all ways are valid. */
    virtual unsigned victim(SetReplState &set) = 0;

    /**
     * Whether the final state after two distinct-line accesses can
     * depend on their order (required for the Fig. 8 receiver). Only
     * advisory; the property test measures the real behaviour.
     */
    virtual bool orderSensitive() const { return true; }
};

/** QLRU variant description (which H/M/R/U rules are in force). */
struct QlruVariant
{
    /** Age a hit maps each current age {0,1,2,3} to. */
    std::array<std::uint8_t, 4> hitPromote{0, 0, 1, 1};
    /** Age assigned on insertion. */
    std::uint8_t insertAge = 1;
    /** R0: evict leftmost age-3 way (the only rule we model). */
    bool evictLeftmost = true;
    /** U0: age all lines only when an eviction needs a candidate. */
    bool ageOnDemand = true;

    /** The paper's Kaby Lake LLC policy. */
    static QlruVariant h11m1r0u0();
    /** H00 variant: any hit promotes straight to age 0. */
    static QlruVariant h00m1r0u0();

    std::string describe() const;
};

/** Quad-age LRU (2-bit RRIP family) per the paper's description. */
class QlruPolicy : public ReplacementPolicy
{
  public:
    explicit QlruPolicy(QlruVariant variant = QlruVariant::h11m1r0u0())
        : variant_(variant)
    {}

    std::string name() const override;
    void onInsert(SetReplState &set, unsigned way) override;
    void onHit(SetReplState &set, unsigned way) override;
    unsigned victim(SetReplState &set) override;

    const QlruVariant &variant() const { return variant_; }

  private:
    QlruVariant variant_;
};

/** True LRU via per-way stamps. */
class LruPolicy : public ReplacementPolicy
{
  public:
    std::string name() const override { return "lru"; }
    void onInsert(SetReplState &set, unsigned way) override;
    void onHit(SetReplState &set, unsigned way) override;
    unsigned victim(SetReplState &set) override;
};

/** Tree-PLRU (associativity must be a power of two). */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    std::string name() const override { return "tree_plru"; }
    void onInsert(SetReplState &set, unsigned way) override;
    void onHit(SetReplState &set, unsigned way) override;
    unsigned victim(SetReplState &set) override;

  private:
    void touch(SetReplState &set, unsigned way);
};

/** Not-recently-used: single use bit per way. */
class NruPolicy : public ReplacementPolicy
{
  public:
    std::string name() const override { return "nru"; }
    void onInsert(SetReplState &set, unsigned way) override;
    void onHit(SetReplState &set, unsigned way) override;
    unsigned victim(SetReplState &set) override;
};

/** Static RRIP with 2-bit RRPV, insert at 2, hit promotes to 0. */
class SrripPolicy : public ReplacementPolicy
{
  public:
    std::string name() const override { return "srrip"; }
    void onInsert(SetReplState &set, unsigned way) override;
    void onHit(SetReplState &set, unsigned way) override;
    unsigned victim(SetReplState &set) override;
};

/** Random replacement (order-insensitive; negative control). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 7) : rng_(seed) {}

    std::string name() const override { return "random"; }
    void onInsert(SetReplState &, unsigned) override {}
    void onHit(SetReplState &, unsigned) override {}
    unsigned victim(SetReplState &set) override;
    bool orderSensitive() const override { return false; }

  private:
    Rng rng_;
};

/** Policy selector for configuration structs. */
enum class ReplKind { Qlru, Lru, TreePlru, Nru, Srrip, Random };

/** Factory over ReplKind. */
std::unique_ptr<ReplacementPolicy>
makePolicy(ReplKind kind, QlruVariant variant = QlruVariant::h11m1r0u0(),
           std::uint64_t seed = 7);

/** Human-readable name of a ReplKind. */
std::string replKindName(ReplKind kind);

} // namespace specint

#endif // SPECINT_MEMORY_REPLACEMENT_HH
