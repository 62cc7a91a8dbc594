/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * Every stochastic element of the simulator (noise injection, workload
 * generation, channel trials) draws from an explicitly seeded Rng so
 * that experiments are exactly reproducible run-to-run. The generator
 * is xoshiro256** seeded via SplitMix64, which is both fast and has no
 * linear artifacts in the low bits. The draws are inline: workload
 * generation makes several per instruction.
 */

#ifndef SPECINT_SIM_RNG_HH
#define SPECINT_SIM_RNG_HH

#include <cassert>
#include <cstdint>

namespace specint
{

/**
 * Deterministic xoshiro256** generator.
 *
 * Satisfies the essential parts of the UniformRandomBitGenerator
 * concept so it can also feed <random> distributions if needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    std::uint64_t operator()() { return next(); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /**
     * Integer in [0, bound) by Lemire's multiply-shift, with no
     * rejection step: each value's probability is within 2^-64 of
     * 1/bound, a relative bias below bound/2^64. Adding rejection
     * would change every seeded stream. bound must be nonzero.
     */
    std::uint64_t
    below(std::uint64_t bound)
    {
        assert(bound != 0);
        const __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Reseed the generator. */
    void seed(std::uint64_t seed);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace specint

#endif // SPECINT_SIM_RNG_HH
