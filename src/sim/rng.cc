/**
 * @file
 * xoshiro256** seeding via SplitMix64, and the inclusive range draw.
 */

#include "sim/rng.hh"

namespace specint
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::range(std::uint64_t lo, std::uint64_t hi)
{
    assert(lo <= hi);
    // [0, 2^64 - 1] has 2^64 values: hi - lo + 1 wraps to 0, and every
    // raw draw is already in range.
    if (hi - lo == ~0ULL)
        return lo + next();
    return lo + below(hi - lo + 1);
}

} // namespace specint
