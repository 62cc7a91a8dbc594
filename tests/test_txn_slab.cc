/**
 * @file
 * Unit tests for the LIFO transaction slab (sim/arena.hh) the memory
 * hierarchy keeps its in-flight MemTransactions in: every acquire()
 * hands out a value-reset slot, nesting depth follows strict LIFO
 * acquire/release, and reset() returns a reused slab to the state of a
 * freshly constructed one.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/arena.hh"

namespace specint
{
namespace
{

struct Record
{
    std::uint64_t addr = 0;
    int tag = -1;
};

TEST(TxnSlabTest, AcquireValueResetsTheSlot)
{
    TxnSlab<Record> slab(4);
    Record *r = slab.acquire();
    r->addr = 0x1234;
    r->tag = 7;
    slab.release(r);

    // The next acquire reuses the same slot, value-reset.
    Record *again = slab.acquire();
    EXPECT_EQ(again, r);
    EXPECT_EQ(again->addr, 0u);
    EXPECT_EQ(again->tag, -1);
}

TEST(TxnSlabTest, DepthFollowsLifoAcquireAndRelease)
{
    TxnSlab<Record> slab(4);
    EXPECT_EQ(slab.capacity(), 4u);
    EXPECT_EQ(slab.depth(), 0u);

    Record *outer = slab.acquire();
    Record *inner = slab.acquire();
    EXPECT_NE(outer, inner);
    EXPECT_EQ(slab.depth(), 2u);

    slab.release(inner);
    EXPECT_EQ(slab.depth(), 1u);
    Record *sibling = slab.acquire();
    EXPECT_EQ(sibling, inner);
    EXPECT_EQ(slab.depth(), 2u);

    slab.release(sibling);
    slab.release(outer);
    EXPECT_EQ(slab.depth(), 0u);
    EXPECT_EQ(slab.acquires(), 3u);
}

TEST(TxnSlabTest, HighWaterTracksTheDeepestNesting)
{
    TxnSlab<Record> slab(4);
    Record *a = slab.acquire();
    Record *b = slab.acquire();
    Record *c = slab.acquire();
    slab.release(c);
    slab.release(b);
    EXPECT_EQ(slab.highWater(), 3u);

    // Shallower nesting afterwards leaves the mark where it was.
    Record *d = slab.acquire();
    slab.release(d);
    slab.release(a);
    EXPECT_EQ(slab.depth(), 0u);
    EXPECT_EQ(slab.highWater(), 3u);
}

TEST(TxnSlabTest, ResetZeroesDepthAcquiresAndHighWater)
{
    TxnSlab<Record> slab(4);
    slab.acquire();
    slab.acquire();
    ASSERT_EQ(slab.depth(), 2u);

    // Outstanding records are dropped, not released.
    slab.reset();
    EXPECT_EQ(slab.depth(), 0u);
    EXPECT_EQ(slab.acquires(), 0u);
    EXPECT_EQ(slab.highWater(), 0u);
    EXPECT_EQ(slab.capacity(), 4u);

    Record *r = slab.acquire();
    EXPECT_EQ(slab.depth(), 1u);
    EXPECT_EQ(slab.highWater(), 1u);
    slab.release(r);
}

} // namespace
} // namespace specint
