/**
 * @file
 * PortSet unit tests: per-cycle issue slots, non-pipelined occupancy
 * (the G^D_NPEU contention point), squash release and the advanced
 * defense's preemption.
 */

#include <gtest/gtest.h>

#include "cpu/exec_unit.hh"

namespace specint
{
namespace
{

TEST(PortSet, OneIssuePerPortPerCycle)
{
    PortSet ps;
    EXPECT_TRUE(ps.canIssue(5, 10));
    ps.issue(5, Op::IntAlu, 10, 11, 1, false);
    EXPECT_FALSE(ps.canIssue(5, 10));
    EXPECT_TRUE(ps.canIssue(6, 10));
    EXPECT_TRUE(ps.canIssue(5, 11)); // pipelined: free next cycle
}

TEST(PortSet, NonPipelinedOccupiesUntilCompletion)
{
    PortSet ps;
    ps.issue(0, Op::FpSqrt, 10, 25, 7, true);
    EXPECT_FALSE(ps.canIssue(0, 11));
    EXPECT_FALSE(ps.canIssue(0, 24));
    EXPECT_TRUE(ps.canIssue(0, 25));
    EXPECT_EQ(ps.holder(0), 7u);
}

TEST(PortSet, SelectPortHonoursPreferenceOrder)
{
    PortSet ps;
    // IntAlu prefers 5, 6, 1, 0.
    EXPECT_EQ(ps.selectPort(Op::IntAlu, 0), 5);
    ps.issue(5, Op::IntAlu, 0, 1, 1, false);
    EXPECT_EQ(ps.selectPort(Op::IntAlu, 0), 6);
    ps.issue(6, Op::IntAlu, 0, 1, 2, false);
    ps.issue(1, Op::IntAlu, 0, 1, 3, false);
    ps.issue(0, Op::IntAlu, 0, 1, 4, false);
    EXPECT_EQ(ps.selectPort(Op::IntAlu, 0), -1);
}

TEST(PortSet, ReleaseIfHeldByFreesUnit)
{
    PortSet ps;
    ps.issue(0, Op::FpDiv, 0, 50, 9, false);
    ps.releaseIfHeldBy(8); // wrong holder: no-op
    EXPECT_TRUE(ps.busy(0, 10));
    ps.releaseIfHeldBy(9);
    EXPECT_FALSE(ps.busy(0, 10));
}

TEST(PortSet, SquashFreesYoungerHolders)
{
    PortSet ps;
    ps.issue(0, Op::FpSqrt, 0, 50, 20, true);
    ps.squashThread(0, 25); // 20 <= 25: survives
    EXPECT_TRUE(ps.busy(0, 10));
    ps.squashThread(0, 10); // 20 > 10: squashed
    EXPECT_FALSE(ps.busy(0, 10));
}

TEST(PortSet, PreemptOnlyYoungerSpeculativeHolders)
{
    PortSet ps;
    // Older requester (seq 5) preempts the younger speculative
    // occupant (seq 30).
    ps.issue(0, Op::FpSqrt, 0, 50, 30, true);
    EXPECT_EQ(ps.preempt(0, 5), 30u);
    EXPECT_FALSE(ps.busy(0, 10));

    // Non-speculative occupants are never preempted.
    ps.issue(0, Op::FpSqrt, 0, 50, 30, false);
    EXPECT_EQ(ps.preempt(0, 5), kSeqNumInvalid);
    EXPECT_TRUE(ps.busy(0, 10));
    ps.reset();

    // A younger requester cannot preempt an older holder.
    ps.issue(0, Op::FpSqrt, 0, 50, 5, true);
    EXPECT_EQ(ps.preempt(0, 30), kSeqNumInvalid);
}

TEST(PortSet, ResetClearsEverything)
{
    PortSet ps;
    ps.issue(0, Op::FpSqrt, 0, 100, 3, true);
    ps.issue(5, Op::IntAlu, 0, 1, 4, false);
    ps.reset();
    EXPECT_TRUE(ps.canIssue(0, 0));
    EXPECT_TRUE(ps.canIssue(5, 0));
    EXPECT_EQ(ps.holder(0), kSeqNumInvalid);
}

} // namespace
} // namespace specint
