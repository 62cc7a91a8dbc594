/**
 * @file
 * Load/store queue unit tests: occupancy accounting and store-to-load
 * forwarding. Whether a load waits for an older store is the issue
 * stage's store-frontier rule, tested in tests/test_core.cc.
 */

#include <gtest/gtest.h>

#include "cpu/lsq.hh"

namespace specint
{
namespace
{

/** Canonical StaticInst per op: DynInst holds a pointer into stable
 *  storage (the Program's code store in real runs). */
const StaticInst &
staticFor(Op op)
{
    static StaticInst insts[16];
    StaticInst &s = insts[static_cast<unsigned>(op)];
    s.op = op;
    return s;
}

/** The in-flight store set as the engine keeps it on the thread
 *  context (ThreadContext::stores: set at dispatch, cleared at
 *  retire/squash). */
SlotSet
storeSet(const Rob &rob)
{
    SlotSet stores(rob.capacity());
    for (const auto &inst : rob)
        if (inst.isStore())
            stores.insert(rob.slotOf(inst));
    return stores;
}

OwnedDynInst
makeInst(SeqNum seq, Op op, Addr addr = kAddrInvalid,
         bool writtenBack = false, std::uint64_t value = 0)
{
    OwnedDynInst o;
    DynInst &d = o.inst;
    d.seq = seq;
    d.setStaticInst(&staticFor(op));
    d.effAddr() = addr;
    d.result() = value;
    d.state = writtenBack ? InstState::WrittenBack : InstState::Dispatched;
    return o;
}

TEST(Lsq, OccupancyAndCapacity)
{
    Lsq lsq(2, 1);
    OwnedDynInst l1 = makeInst(0, Op::Load);
    OwnedDynInst l2 = makeInst(1, Op::Load);
    OwnedDynInst l3 = makeInst(2, Op::Load);
    OwnedDynInst s1 = makeInst(3, Op::Store);
    OwnedDynInst s2 = makeInst(4, Op::Store);

    EXPECT_TRUE(lsq.allocate(l1.inst));
    EXPECT_TRUE(lsq.allocate(l2.inst));
    EXPECT_FALSE(lsq.allocate(l3.inst)); // LQ full
    EXPECT_TRUE(lsq.allocate(s1.inst));
    EXPECT_FALSE(lsq.allocate(s2.inst)); // SQ full
    lsq.release(l1.inst);
    EXPECT_TRUE(lsq.allocate(l3.inst));
    EXPECT_EQ(lsq.loads(), 2u);
    EXPECT_EQ(lsq.stores(), 1u);
}

TEST(Lsq, NonMemOpsDoNotConsumeEntries)
{
    Lsq lsq(1, 1);
    OwnedDynInst alu = makeInst(0, Op::IntAlu);
    EXPECT_TRUE(lsq.allocate(alu.inst));
    EXPECT_EQ(lsq.loads(), 0u);
    EXPECT_EQ(lsq.stores(), 0u);
}

TEST(Lsq, LoadForwardsFromMatchingOlderStore)
{
    Lsq lsq;
    Rob rob;
    rob.push(makeInst(0, Op::Store, 0x1000, true, 42).inst);
    DynInst &load = rob.push(makeInst(1, Op::Load, 0x1000).inst);

    const DynInst *st = lsq.forwardingStore(load, rob, storeSet(rob));
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->result(), 42u);
}

TEST(Lsq, ForwardingMatchesWordGranularity)
{
    Lsq lsq;
    Rob rob;
    rob.push(makeInst(0, Op::Store, 0x1000, true, 42).inst);
    DynInst &same_word = rob.push(makeInst(1, Op::Load, 0x1004).inst);
    DynInst &next_word = rob.push(makeInst(2, Op::Load, 0x1008).inst);

    EXPECT_NE(lsq.forwardingStore(same_word, rob, storeSet(rob)), nullptr);
    EXPECT_EQ(lsq.forwardingStore(next_word, rob, storeSet(rob)), nullptr);
}

TEST(Lsq, NearestOlderStoreWins)
{
    Lsq lsq;
    Rob rob;
    rob.push(makeInst(0, Op::Store, 0x1000, true, 1).inst);
    rob.push(makeInst(1, Op::Store, 0x1000, true, 2).inst);
    DynInst &load = rob.push(makeInst(2, Op::Load, 0x1000).inst);

    const DynInst *st = lsq.forwardingStore(load, rob, storeSet(rob));
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->result(), 2u);
}

TEST(Lsq, YoungerStoresAreIgnored)
{
    Lsq lsq;
    Rob rob;
    DynInst &load = rob.push(makeInst(0, Op::Load, 0x1000).inst);
    rob.push(makeInst(1, Op::Store, 0x1000, false).inst);

    // The younger store is not written back: the walk must stop before
    // it (forwardingStore asserts every older store is).
    EXPECT_EQ(lsq.forwardingStore(load, rob, storeSet(rob)), nullptr);
}

} // namespace
} // namespace specint
