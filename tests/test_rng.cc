/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"

namespace specint
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(4);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(6);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

/** The first draws of two seeded streams: every seeded experiment and
 *  golden trace depends on them. */
TEST(Rng, KnownAnswers)
{
    const struct
    {
        std::uint64_t seed;
        std::uint64_t next[4];
        std::uint64_t below100[8];
        double uniform[4];
        bool chance30[16];
    } cases[] = {
        {1,
         {0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL,
          0x92f89756082a4514ULL, 0x642e1c7bc266a3a7ULL},
         {70, 52, 57, 39, 69, 14, 7, 38},
         {0x1.67e55eda1f8e2p-1, 0x1.0a76ab2c8e6c9p-1,
          0x1.25f12eac10548p-1, 0x1.90b871ef099a8p-2},
         {0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
        {90917,
         {0x48a8517c8626e838ULL, 0xe1d72748d01a4913ULL,
          0x43566984538094bcULL, 0x12005165892eb6bcULL},
         {28, 88, 26, 7, 58, 99, 39, 49},
         {0x1.22a145f2189bap-2, 0x1.c3ae4e91a0349p-1,
          0x1.0d59a6114e024p-2, 0x1.2005165892ebp-4},
         {1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.seed);
        Rng next(c.seed), below(c.seed), uniform(c.seed), chance(c.seed);
        for (std::uint64_t v : c.next)
            EXPECT_EQ(next.next(), v);
        for (std::uint64_t v : c.below100)
            EXPECT_EQ(below.below(100), v);
        for (double v : c.uniform)
            EXPECT_EQ(uniform.uniform(), v);
        for (bool v : c.chance30)
            EXPECT_EQ(chance.chance(0.3), v);
        // The full 64-bit span takes the raw draw (hi - lo + 1 wraps).
        Rng full(c.seed);
        EXPECT_EQ(full.range(0, ~0ULL), c.next[0]);
        EXPECT_EQ(full.range(0, ~0ULL), c.next[1]);
    }
}

TEST(Rng, ReseedRestoresStream)
{
    Rng rng(9);
    const auto first = rng.next();
    rng.seed(9);
    EXPECT_EQ(rng.next(), first);
}

} // namespace
} // namespace specint
