/**
 * @file
 * Sender/gadget builder tests: structural properties every sender must
 * satisfy for the receivers to work (congruence of monitored lines,
 * isolation of auxiliary data from the monitored set, label presence,
 * gadget placement on the wrong path).
 */

#include <cctype>

#include <gtest/gtest.h>

#include "attack/gadget.hh"
#include "attack/matrix.hh"

namespace specint
{
namespace
{

class SenderBuild
    : public ::testing::TestWithParam<
          std::pair<GadgetKind, OrderingKind>>
{
  protected:
    SenderBuild() : hier(HierarchyConfig::small()) {}
    Hierarchy hier;
};

TEST_P(SenderBuild, StructurallySound)
{
    const auto [g, o] = GetParam();
    SenderParams params;
    params.gadget = g;
    params.ordering = o;
    const SenderProgram sp = buildSender(params, hier);

    // Program sanity.
    ASSERT_GT(sp.prog.size(), 4u);
    ASSERT_LT(sp.branchPc, sp.prog.size());
    EXPECT_TRUE(sp.prog.at(sp.branchPc).isBranch());
    EXPECT_GE(sp.prog.findLabel("access"), 0);
    EXPECT_NE(sp.secretSlot, kAddrInvalid);

    // The gadget (access load) must be on the branch's taken path and
    // after the branch in fetch order.
    const unsigned target = sp.prog.at(sp.branchPc).target;
    EXPECT_GT(target, sp.branchPc);
    EXPECT_EQ(static_cast<unsigned>(sp.prog.findLabel("access")),
              target);

    // Monitored lines must be congruent (same LLC set and slice).
    const Addr first =
        (o == OrderingKind::VdVi || o == OrderingKind::ViAd ||
         o == OrderingKind::Presence)
            ? sp.icacheTarget
            : sp.addrA;
    ASSERT_NE(first, kAddrInvalid);
    const Addr second = sp.monitorSecond();
    if (second != kAddrInvalid) {
        EXPECT_EQ(hier.llcSetIndex(first), hier.llcSetIndex(second));
        EXPECT_EQ(hier.llcSliceIndex(first),
                  hier.llcSliceIndex(second));
        EXPECT_NE(lineAlign(first), lineAlign(second));
    }

    // No auxiliary (warm/flush/LLC-warm) line may pollute the
    // monitored set, except the monitored lines themselves.
    auto polluting = [&](Addr a) {
        return a != lineAlign(first) && second != kAddrInvalid &&
               a != lineAlign(second) &&
               hier.llcSetIndex(a) == hier.llcSetIndex(first) &&
               hier.llcSliceIndex(a) == hier.llcSliceIndex(first);
    };
    for (Addr a : sp.warmLines)
        EXPECT_FALSE(polluting(lineAlign(a))) << std::hex << a;
    for (Addr a : sp.flushLines)
        EXPECT_FALSE(polluting(lineAlign(a))) << std::hex << a;

    // Monitored I-lines must not be pre-warmed.
    if (sp.icacheTarget != kAddrInvalid) {
        for (Addr a : sp.warmCodeLines)
            EXPECT_NE(a, sp.icacheTarget);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SenderBuild,
    ::testing::ValuesIn(tableOneCombos()),
    [](const auto &info) {
        std::string n = gadgetName(info.param.first) + "_" +
                        orderingName(info.param.second);
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(SenderBuildDetails, NpeuGadgetUsesNonPipelinedChain)
{
    Hierarchy hier(HierarchyConfig::small());
    SenderParams p;
    p.gadget = GadgetKind::Npeu;
    p.ordering = OrderingKind::VdVd;
    const SenderProgram sp = buildSender(p, hier);
    EXPECT_GE(sp.prog.findLabel("fp1"), 0);
    EXPECT_GE(sp.prog.findLabel("f1"), 0);
    EXPECT_GE(sp.prog.findLabel("loadA"), 0);
    EXPECT_GE(sp.prog.findLabel("loadB"), 0);
    // The B load's displacement was patched to the congruent address.
    const auto &ldb = sp.prog.at(
        static_cast<unsigned>(sp.prog.findLabel("loadB")));
    EXPECT_EQ(static_cast<Addr>(ldb.imm), sp.addrB);
}

TEST(SenderBuildDetails, MshrGadgetHasOneLoadPerMshr)
{
    Hierarchy hier(HierarchyConfig::small());
    SenderParams p;
    p.gadget = GadgetKind::Mshr;
    p.ordering = OrderingKind::VdAd;
    p.mshrLoads = 10;
    const SenderProgram sp = buildSender(p, hier);
    unsigned gadget_loads = 0;
    for (unsigned pc = 0; pc < sp.prog.size(); ++pc)
        if (sp.prog.label(pc).substr(0, 3) == "gml")
            ++gadget_loads;
    EXPECT_EQ(gadget_loads, 10u);
    // All candidate lines must be pre-staged in the LLC.
    EXPECT_GE(sp.llcWarmLines.size(), 10u);
}

TEST(SenderBuildDetails, RsGadgetFillsReservationStations)
{
    Hierarchy hier(HierarchyConfig::small());
    SenderParams p;
    p.gadget = GadgetKind::Rs;
    p.ordering = OrderingKind::Presence;
    p.rsAdds = 160;
    const SenderProgram sp = buildSender(p, hier);
    EXPECT_GE(sp.prog.findLabel("target_instr"), 0);
    EXPECT_NE(sp.icacheTarget, kAddrInvalid);
    // The target must sit far enough downstream that a full RS (97) +
    // decode queue cannot reach it.
    const unsigned target_pc =
        static_cast<unsigned>(sp.prog.findLabel("target_instr"));
    const unsigned gadget_pc = sp.prog.at(sp.branchPc).target;
    EXPECT_GT(target_pc - gadget_pc, 97u + 24u + 8u);
}

TEST(SenderBuildDetails, ViMarkerLineIsCongruentWithReference)
{
    Hierarchy hier(HierarchyConfig::small());
    SenderParams p;
    p.gadget = GadgetKind::Npeu;
    p.ordering = OrderingKind::ViAd;
    const SenderProgram sp = buildSender(p, hier);
    ASSERT_NE(sp.icacheTarget, kAddrInvalid);
    ASSERT_NE(sp.refAddr, kAddrInvalid);
    EXPECT_EQ(hier.llcSetIndex(sp.icacheTarget),
              hier.llcSetIndex(sp.refAddr));
    // The gadget must start on a different I-line than the monitored
    // fall-through marker.
    const unsigned gadget_pc = sp.prog.at(sp.branchPc).target;
    EXPECT_NE(sp.prog.instLine(gadget_pc), sp.icacheTarget);
}

} // namespace
} // namespace specint
