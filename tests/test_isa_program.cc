/**
 * @file
 * ISA trait and Program builder tests.
 */

#include <gtest/gtest.h>

#include "cpu/isa.hh"
#include "cpu/program.hh"

namespace specint
{
namespace
{

TEST(OpTraits, NonPipelinedFpOpsOnPortZero)
{
    const auto &sqrt = opTraits(Op::FpSqrt);
    EXPECT_FALSE(sqrt.pipelined);
    ASSERT_FALSE(sqrt.ports.empty());
    EXPECT_EQ(sqrt.ports[0], 0);
    EXPECT_GE(sqrt.latency, 10u);

    const auto &div = opTraits(Op::FpDiv);
    EXPECT_FALSE(div.pipelined);
    EXPECT_EQ(div.ports[0], 0);
}

TEST(OpTraits, LoadsUseLoadPorts)
{
    const auto &ld = opTraits(Op::Load);
    EXPECT_EQ(ld.ports.size(), 2u);
    EXPECT_EQ(ld.ports[0], 2);
    EXPECT_EQ(ld.ports[1], 3);
}

TEST(OpTraits, AluAvoidsPortZeroFirst)
{
    const auto &alu = opTraits(Op::IntAlu);
    EXPECT_NE(alu.ports[0], 0);
    EXPECT_TRUE(alu.pipelined);
}

TEST(EvalCond, AllConditions)
{
    EXPECT_TRUE(evalCond(BranchCond::LT, 1, 2));
    EXPECT_FALSE(evalCond(BranchCond::LT, 2, 2));
    EXPECT_TRUE(evalCond(BranchCond::GE, 2, 2));
    EXPECT_TRUE(evalCond(BranchCond::EQ, 3, 3));
    EXPECT_TRUE(evalCond(BranchCond::NE, 3, 4));
}

TEST(Program, BuilderProducesLabeledInstructions)
{
    Program p;
    p.movi(1, 42);
    p.load(2, 1, 0x1000, 1, "theload");
    p.sqrt(3, 2, "thesqrt");
    const unsigned br = p.branch(BranchCond::LT, 1, 2, 0, "br");
    p.halt();
    p.setBranchTarget(br, 4);

    EXPECT_EQ(p.size(), 5u);
    EXPECT_EQ(p.findLabel("theload"), 1);
    EXPECT_EQ(p.findLabel("missing"), -1);
    EXPECT_EQ(p.at(3).target, 4u);
    EXPECT_TRUE(p.at(1).isLoad());
    EXPECT_TRUE(p.at(3).isBranch());
}

TEST(Program, InstAddressesAreFourBytesApart)
{
    Program p(0x400000);
    p.nop();
    p.nop();
    EXPECT_EQ(p.instAddr(0), 0x400000u);
    EXPECT_EQ(p.instAddr(1), 0x400004u);
    EXPECT_EQ(p.instLine(0), p.instLine(1));
    EXPECT_EQ(p.instLine(16), 0x400040u);
}

TEST(Program, InitialRegisters)
{
    Program p;
    p.setReg(5, 123);
    EXPECT_EQ(p.initRegs()[5], 123u);
    EXPECT_EQ(p.initRegs()[6], 0u);
}

TEST(Program, SetImmediatePatchesDisplacement)
{
    Program p;
    const unsigned ld = p.load(1, kNoReg, 0, 1, "x");
    p.setImmediate(ld, 0xbeef);
    EXPECT_EQ(p.at(ld).imm, 0xbeef);
}

/** Labelled and unlabelled instructions, "lab" twice. */
Program
mixedLabelProgram()
{
    Program p;
    p.movi(1, 7);
    p.load(2, 1, 16, 64, "lab");
    p.store(1, 2, 8);
    p.sqrt(3, 2, "root");
    const unsigned br = p.branch(BranchCond::GE, 1, 2, 0, "br");
    p.mul(4, 3, kNoReg, 2);
    p.fence("lab");
    p.halt();
    p.setBranchTarget(br, 7);
    return p;
}

TEST(Program, ListingDisassemblesEveryInstruction)
{
    // Every instruction, with "  ; label" after each labelled one.
    EXPECT_EQ(mixedLabelProgram().listing(),
              "0:\tadd r1, -, -, #7\n"
              "1:\tload r2, [r1*64 + 16]  ; lab\n"
              "2:\tstore [r1*1 + 8], r2\n"
              "3:\tvsqrtpd r3, r2, -, #0  ; root\n"
              "4:\tbr r1, r2 -> 7  ; br\n"
              "5:\tmul r4, r3, -, #2\n"
              "6:\tfence  ; lab\n"
              "7:\thalt\n");
}

TEST(Program, LabelTableAnswersByPcAndSurvivesACopy)
{
    Program copy;
    {
        const Program original = mixedLabelProgram();
        copy = original;
    }
    const Program fresh = mixedLabelProgram();
    const Program *const programs[] = {&fresh, &copy};
    for (const Program *p : programs) {
        EXPECT_EQ(p->label(1), "lab");
        EXPECT_EQ(p->label(3), "root");
        EXPECT_EQ(p->label(6), "lab");
        EXPECT_EQ(p->label(0), "");
        EXPECT_EQ(p->label(5), "");
        EXPECT_EQ(p->label(7), "");
        EXPECT_TRUE(p->at(1).labeled);
        EXPECT_FALSE(p->at(2).labeled);
        // The first of the two "lab" instructions.
        EXPECT_EQ(p->findLabel("lab"), 1);
        EXPECT_EQ(p->findLabel("br"), 4);
    }
    EXPECT_EQ(copy.listing(), fresh.listing());
}

} // namespace
} // namespace specint
