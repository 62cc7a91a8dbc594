/**
 * @file
 * MSHR file tests — the structure G^D_MSHR saturates.
 */

#include <gtest/gtest.h>

#include "memory/mshr.hh"

namespace specint
{
namespace
{

TEST(Mshr, AllocateUntilFull)
{
    MshrFile m(3);
    m.allocate(0x000, 0, 100);
    m.allocate(0x040, 0, 100);
    EXPECT_FALSE(m.full(0));
    m.allocate(0x080, 0, 100);
    EXPECT_TRUE(m.full(0));
    EXPECT_EQ(m.inUse(0), 3u);
}

TEST(Mshr, SameLineMergesWhenFull)
{
    MshrFile m(2);
    m.allocate(0x000, 0, 100);
    m.allocate(0x040, 0, 100);
    // A miss merges into the existing 0x000 entry despite the file
    // being full: the line lookup finds it, no entry is taken.
    EXPECT_TRUE(m.full(0));
    EXPECT_TRUE(m.hasEntry(0x010, 0)); // same line as 0x000
    EXPECT_FALSE(m.hasEntry(0x080, 0));
    EXPECT_EQ(m.inUse(0), 2u);
}

TEST(Mshr, EntriesExpireAtReadyTime)
{
    MshrFile m(2);
    m.allocate(0x000, 0, 50);
    m.allocate(0x040, 0, 80);
    EXPECT_EQ(m.inUse(49), 2u);
    EXPECT_EQ(m.inUse(50), 1u);
    EXPECT_EQ(m.inUse(80), 0u);
}

TEST(Mshr, ReadyAtQueries)
{
    MshrFile m(2);
    m.allocate(0x000, 0, 70);
    EXPECT_EQ(m.earliestReady(0), 70u);
}

TEST(Mshr, EarliestReadyEmptyFile)
{
    MshrFile m(2);
    EXPECT_EQ(m.earliestReady(0), kTickMax);
}

TEST(Mshr, SquashDropsSpeculativeYounger)
{
    MshrFile m(4);
    m.allocate(0x000, 0, 100, 5, true);
    m.allocate(0x040, 0, 100, 9, true);
    m.allocate(0x080, 0, 100, 2, false); // non-speculative survives
    m.squashThread(0, 5);
    EXPECT_EQ(m.inUse(0), 2u);
    EXPECT_TRUE(m.hasEntry(0x000, 0));
    EXPECT_FALSE(m.hasEntry(0x040, 0));
    EXPECT_TRUE(m.hasEntry(0x080, 0));
}

TEST(Mshr, PreemptFreesYoungestSpeculative)
{
    // The advanced defense's MSHR rule (§5.4).
    MshrFile m(2);
    m.allocate(0x000, 0, 100, 3, true);
    m.allocate(0x040, 0, 100, 8, true);
    EXPECT_TRUE(m.preemptYoungestSpeculative(0));
    EXPECT_FALSE(m.hasEntry(0x040, 0));
    EXPECT_TRUE(m.hasEntry(0x000, 0));
}

TEST(Mshr, PreemptSkipsNonSpeculative)
{
    MshrFile m(1);
    m.allocate(0x000, 0, 100, 3, false);
    EXPECT_FALSE(m.preemptYoungestSpeculative(0));
    EXPECT_TRUE(m.hasEntry(0x000, 0));
}

TEST(Mshr, ResetEmptiesFile)
{
    MshrFile m(2);
    m.allocate(0x000, 0, 100);
    m.reset();
    EXPECT_EQ(m.inUse(0), 0u);
}

} // namespace
} // namespace specint
