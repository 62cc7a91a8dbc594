/**
 * @file
 * Replacement policy implementations: true LRU and the
 * parameterised QLRU family, including the Kaby Lake LLC policy
 * QLRU_H11_M1_R0_U0 the replacement-state receiver depends on.
 */

#include "memory/replacement.hh"

#include <cassert>

#include "sim/log.hh"

namespace specint
{

void
SetReplState::resize(unsigned ways)
{
    if (ways > kMaxCacheWays) {
        panic("SetReplState: " + std::to_string(ways) +
              " ways exceed kMaxCacheWays (" +
              std::to_string(kMaxCacheWays) + ")");
    }
    age.assign(ways, 0);
    stamp.assign(ways, 0);
    treeBits.assign(ways > 1 ? ways - 1 : 0, 0);
    tick = 0;
}

QlruVariant
QlruVariant::h11m1r0u0()
{
    QlruVariant v;
    // Paper §4.2.2: "Promotes a line of age 3 to age 1, age 2 to age 1,
    // and age 1/0 to age 0 upon hit."
    v.hitPromote = {0, 0, 1, 1};
    v.insertAge = 1;
    v.evictLeftmost = true;
    v.ageOnDemand = true;
    return v;
}

QlruVariant
QlruVariant::h00m1r0u0()
{
    QlruVariant v;
    v.hitPromote = {0, 0, 0, 0};
    v.insertAge = 1;
    return v;
}

std::string
QlruVariant::describe() const
{
    std::string s = "qlru_h";
    s += std::to_string(hitPromote[3]);
    s += std::to_string(hitPromote[2]);
    s += "_m" + std::to_string(insertAge);
    s += evictLeftmost ? "_r0" : "_r1";
    s += ageOnDemand ? "_u0" : "_u1";
    return s;
}

std::string
QlruPolicy::name() const
{
    return variant_.describe();
}

void
QlruPolicy::onInsert(SetReplState &set, unsigned way)
{
    assert(way < set.age.size());
    set.age[way] = variant_.insertAge;
}

void
QlruPolicy::onHit(SetReplState &set, unsigned way)
{
    assert(way < set.age.size());
    const std::uint8_t cur = set.age[way] & 0x3;
    set.age[way] = variant_.hitPromote[cur];
}

unsigned
QlruPolicy::victim(SetReplState &set)
{
    const unsigned ways = static_cast<unsigned>(set.age.size());
    assert(ways > 0);

    auto find_candidate = [&]() -> int {
        for (unsigned w = 0; w < ways; ++w)
            if (set.age[w] == 3)
                return static_cast<int>(w);
        return -1;
    };

    int cand = find_candidate();
    if (variant_.ageOnDemand) {
        // U0: increment all ages (saturating) until a candidate exists.
        while (cand < 0) {
            for (unsigned w = 0; w < ways; ++w)
                if (set.age[w] < 3)
                    ++set.age[w];
            cand = find_candidate();
        }
    } else if (cand < 0) {
        cand = 0;
    }
    return static_cast<unsigned>(cand);
}

void
LruPolicy::onInsert(SetReplState &set, unsigned way)
{
    set.stamp[way] = ++set.tick;
}

void
LruPolicy::onHit(SetReplState &set, unsigned way)
{
    set.stamp[way] = ++set.tick;
}

unsigned
LruPolicy::victim(SetReplState &set)
{
    unsigned best = 0;
    for (unsigned w = 1; w < set.stamp.size(); ++w)
        if (set.stamp[w] < set.stamp[best])
            best = w;
    return best;
}

void
TreePlruPolicy::touch(SetReplState &set, unsigned way)
{
    const unsigned ways = static_cast<unsigned>(set.age.size());
    assert((ways & (ways - 1)) == 0 && ways > 1);
    // Walk from the root, flipping each node to point *away* from the
    // accessed way. Node layout: implicit heap, node 0 is the root.
    unsigned node = 0;
    unsigned lo = 0;
    unsigned hi = ways;
    while (hi - lo > 1) {
        const unsigned mid = lo + (hi - lo) / 2;
        const bool right = way >= mid;
        set.treeBits[node] = right ? 0 : 1; // point away
        node = 2 * node + (right ? 2 : 1);
        if (right)
            lo = mid;
        else
            hi = mid;
    }
}

void
TreePlruPolicy::onInsert(SetReplState &set, unsigned way)
{
    touch(set, way);
}

void
TreePlruPolicy::onHit(SetReplState &set, unsigned way)
{
    touch(set, way);
}

unsigned
TreePlruPolicy::victim(SetReplState &set)
{
    const unsigned ways = static_cast<unsigned>(set.age.size());
    unsigned node = 0;
    unsigned lo = 0;
    unsigned hi = ways;
    while (hi - lo > 1) {
        const unsigned mid = lo + (hi - lo) / 2;
        const bool right = set.treeBits[node] != 0;
        node = 2 * node + (right ? 2 : 1);
        if (right)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

void
NruPolicy::onInsert(SetReplState &set, unsigned way)
{
    set.age[way] = 0;
}

void
NruPolicy::onHit(SetReplState &set, unsigned way)
{
    set.age[way] = 0;
}

unsigned
NruPolicy::victim(SetReplState &set)
{
    const unsigned ways = static_cast<unsigned>(set.age.size());
    for (unsigned round = 0; round < 2; ++round) {
        for (unsigned w = 0; w < ways; ++w)
            if (set.age[w] != 0)
                return w;
        for (unsigned w = 0; w < ways; ++w)
            set.age[w] = 1;
    }
    panic("NRU victim selection failed to converge");
}

void
SrripPolicy::onInsert(SetReplState &set, unsigned way)
{
    set.age[way] = 2;
}

void
SrripPolicy::onHit(SetReplState &set, unsigned way)
{
    set.age[way] = 0;
}

unsigned
SrripPolicy::victim(SetReplState &set)
{
    const unsigned ways = static_cast<unsigned>(set.age.size());
    while (true) {
        for (unsigned w = 0; w < ways; ++w)
            if (set.age[w] == 3)
                return w;
        for (unsigned w = 0; w < ways; ++w)
            if (set.age[w] < 3)
                ++set.age[w];
    }
}

unsigned
RandomPolicy::victim(SetReplState &set)
{
    return static_cast<unsigned>(rng_.below(set.age.size()));
}

std::unique_ptr<ReplacementPolicy>
makePolicy(ReplKind kind, QlruVariant variant, std::uint64_t seed)
{
    switch (kind) {
      case ReplKind::Qlru:
        return std::make_unique<QlruPolicy>(variant);
      case ReplKind::Lru:
        return std::make_unique<LruPolicy>();
      case ReplKind::TreePlru:
        return std::make_unique<TreePlruPolicy>();
      case ReplKind::Nru:
        return std::make_unique<NruPolicy>();
      case ReplKind::Srrip:
        return std::make_unique<SrripPolicy>();
      case ReplKind::Random:
        return std::make_unique<RandomPolicy>(seed);
    }
    panic("unknown ReplKind");
}

std::string
replKindName(ReplKind kind)
{
    switch (kind) {
      case ReplKind::Qlru: return "qlru";
      case ReplKind::Lru: return "lru";
      case ReplKind::TreePlru: return "tree_plru";
      case ReplKind::Nru: return "nru";
      case ReplKind::Srrip: return "srrip";
      case ReplKind::Random: return "random";
    }
    return "?";
}

} // namespace specint
