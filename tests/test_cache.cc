/**
 * @file
 * CacheArray unit tests.
 */

#include <gtest/gtest.h>

#include "memory/cache.hh"

namespace specint
{
namespace
{

CacheGeometry
smallGeo(ReplKind kind = ReplKind::Lru)
{
    return {"test", 4, 2, kind};
}

Addr
addrFor(unsigned set, unsigned k, unsigned sets = 4)
{
    return (static_cast<Addr>(k) * sets + set) << kLineShift;
}

TEST(CacheArray, MissThenFillThenHit)
{
    CacheArray c(smallGeo());
    const Addr a = addrFor(1, 0);
    EXPECT_FALSE(c.contains(a));
    EXPECT_FALSE(c.touch(a));
    EXPECT_EQ(c.fill(a), kAddrInvalid);
    EXPECT_TRUE(c.contains(a));
    EXPECT_TRUE(c.touch(a));
}

TEST(CacheArray, FillEvictsWhenSetFull)
{
    CacheArray c(smallGeo());
    const Addr a0 = addrFor(2, 0), a1 = addrFor(2, 1), a2 = addrFor(2, 2);
    c.fill(a0);
    c.fill(a1);
    const Addr evicted = c.fill(a2);
    EXPECT_EQ(evicted, a0); // LRU
    EXPECT_FALSE(c.contains(a0));
    EXPECT_TRUE(c.contains(a1));
    EXPECT_TRUE(c.contains(a2));
}

TEST(CacheArray, TouchUpdatesLruOrder)
{
    CacheArray c(smallGeo());
    const Addr a0 = addrFor(0, 0), a1 = addrFor(0, 1), a2 = addrFor(0, 2);
    c.fill(a0);
    c.fill(a1);
    c.touch(a0); // a1 now LRU
    EXPECT_EQ(c.fill(a2), a1);
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray c(smallGeo());
    const Addr a = addrFor(3, 0);
    c.fill(a);
    EXPECT_TRUE(c.invalidate(a));
    EXPECT_FALSE(c.contains(a));
    EXPECT_FALSE(c.invalidate(a));
}

TEST(CacheArray, InvalidWayReusedBeforeEviction)
{
    CacheArray c(smallGeo());
    const Addr a0 = addrFor(1, 0), a1 = addrFor(1, 1), a2 = addrFor(1, 2);
    c.fill(a0);
    c.fill(a1);
    c.invalidate(a0);
    EXPECT_EQ(c.fill(a2), kAddrInvalid); // no eviction needed
    EXPECT_TRUE(c.contains(a1));
}

TEST(CacheArray, DeferredTouchActsLikeHitUpdate)
{
    // DoM semantics: a speculative hit that defers its replacement
    // update leaves the line evictable until the update is applied.
    CacheArray c(smallGeo());
    const Addr a0 = addrFor(0, 0), a1 = addrFor(0, 1), a2 = addrFor(0, 2);
    c.fill(a0);
    c.fill(a1);
    // Probe (no update), then apply the deferred touch on a0.
    EXPECT_TRUE(c.contains(a0));
    c.deferredTouch(a0);
    EXPECT_EQ(c.fill(a2), a1); // a0 was refreshed, a1 evicted
}

TEST(CacheArray, DeferredTouchOnEvictedLineIsNoop)
{
    CacheArray c(smallGeo());
    const Addr a0 = addrFor(0, 0);
    c.fill(a0);
    c.invalidate(a0);
    c.deferredTouch(a0); // must not crash or corrupt state
    EXPECT_FALSE(c.contains(a0));
}

TEST(CacheArray, SnapshotReportsAges)
{
    CacheArray c({"q", 2, 4, ReplKind::Qlru});
    const Addr a = addrFor(0, 0, 2);
    c.fill(a);
    const auto snap = c.snapshotSet(0);
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_TRUE(snap[0].valid);
    EXPECT_EQ(snap[0].lineAddr, a);
    EXPECT_EQ(snap[0].age, 1); // QLRU M1 insertion
    EXPECT_FALSE(snap[1].valid);
}

TEST(CacheArray, OccupancyCounts)
{
    CacheArray c(smallGeo());
    EXPECT_EQ(c.occupancy(1), 0u);
    c.fill(addrFor(1, 0));
    EXPECT_EQ(c.occupancy(1), 1u);
    c.fill(addrFor(1, 1));
    EXPECT_EQ(c.occupancy(1), 2u);
}

TEST(CacheArray, ResetClearsEverything)
{
    CacheArray c(smallGeo());
    c.fill(addrFor(0, 0));
    c.reset();
    EXPECT_FALSE(c.contains(addrFor(0, 0)));
}

TEST(CacheArrayDeathTest, RejectsMoreWaysThanTheVictimScanCovers)
{
    EXPECT_DEATH(CacheArray({"wide", 4, kMaxCacheWays + 1}),
                 "exceed kMaxCacheWays");
}

TEST(CacheArrayDeathTest, RejectsASetCountTheIndexMaskCannotCover)
{
    // The set index is the line number masked with sets - 1.
    EXPECT_DEATH(CacheArray({"odd", 48, 4}), "48 sets is not a power of two");
}

TEST(CacheArray, SetIndexWrapsOnLineNumber)
{
    CacheArray c(smallGeo());
    EXPECT_EQ(c.setIndex(0), 0u);
    EXPECT_EQ(c.setIndex(64), 1u);
    EXPECT_EQ(c.setIndex(64 * 4), 0u);
    EXPECT_EQ(c.setIndex(63), 0u); // same line
}

} // namespace
} // namespace specint
