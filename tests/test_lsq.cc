/**
 * @file
 * Load/store queue unit tests: occupancy accounting and memory
 * disambiguation (conservative blocking + store-to-load forwarding).
 */

#include <gtest/gtest.h>

#include <vector>

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

/** Age-sorted in-flight store list as the engine maintains it on the
 *  thread context (pushed at dispatch, popped at retire/squash). */
std::vector<SeqNum>
storeList(const Rob &rob)
{
    std::vector<SeqNum> seqs;
    for (const auto &inst : rob)
        if (inst.isStore())
            seqs.push_back(inst.seq);
    return seqs;
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

TEST(Lsq, LoadBlockedByUnresolvedOlderStore)
{
    Lsq lsq;
    Rob rob;
    rob.push(makeInst(0, Op::Store).inst); // address unknown
    DynInst &load = rob.push(makeInst(1, Op::Load, 0x1000).inst);

    const DisambigResult r = lsq.check(load, rob, storeList(rob));
    EXPECT_TRUE(r.blocked);
    EXPECT_FALSE(r.forward);
}

TEST(Lsq, LoadForwardsFromMatchingOlderStore)
{
    Lsq lsq;
    Rob rob;
    rob.push(makeInst(0, Op::Store, 0x1000, true, 42).inst);
    DynInst &load = rob.push(makeInst(1, Op::Load, 0x1000).inst);

    const DisambigResult r = lsq.check(load, rob, storeList(rob));
    EXPECT_FALSE(r.blocked);
    EXPECT_TRUE(r.forward);
    EXPECT_EQ(r.forwardValue, 42u);
}

TEST(Lsq, ForwardingMatchesWordGranularity)
{
    Lsq lsq;
    Rob rob;
    rob.push(makeInst(0, Op::Store, 0x1000, true, 42).inst);
    DynInst &same_word = rob.push(makeInst(1, Op::Load, 0x1004).inst);
    DynInst &next_word = rob.push(makeInst(2, Op::Load, 0x1008).inst);

    EXPECT_TRUE(lsq.check(same_word, rob, storeList(rob)).forward);
    EXPECT_FALSE(lsq.check(next_word, rob, storeList(rob)).forward);
}

TEST(Lsq, NearestOlderStoreWins)
{
    Lsq lsq;
    Rob rob;
    rob.push(makeInst(0, Op::Store, 0x1000, true, 1).inst);
    rob.push(makeInst(1, Op::Store, 0x1000, true, 2).inst);
    DynInst &load = rob.push(makeInst(2, Op::Load, 0x1000).inst);

    const DisambigResult r = lsq.check(load, rob, storeList(rob));
    EXPECT_TRUE(r.forward);
    EXPECT_EQ(r.forwardValue, 2u);
}

TEST(Lsq, YoungerStoresAreIgnored)
{
    Lsq lsq;
    Rob rob;
    DynInst &load = rob.push(makeInst(0, Op::Load, 0x1000).inst);
    rob.push(makeInst(1, Op::Store, 0x1000, false).inst);

    const DisambigResult r = lsq.check(load, rob, storeList(rob));
    EXPECT_FALSE(r.blocked);
    EXPECT_FALSE(r.forward);
}

} // namespace
} // namespace specint
