/**
 * @file
 * Cross-configuration property tests: the headline results must be
 * robust to the machine configuration, not artifacts of one geometry.
 *
 *  - The D-Cache attack (G^D_NPEU / VD-VD under DoM) works on both the
 *    small test hierarchy and the full Kaby Lake geometry, and across
 *    ROB/issue-width variations.
 *  - Defenses block it under every configuration.
 *  - Channel runs are bit-for-bit deterministic for a fixed seed.
 */

#include <gtest/gtest.h>

#include "attack/channel.hh"
#include "attack/sender.hh"
#include "cpu/core.hh"

namespace specint
{
namespace
{

struct MachineVariant
{
    const char *name;
    HierarchyConfig hier;
    CoreConfig core;
};

std::vector<MachineVariant>
variants()
{
    std::vector<MachineVariant> out;
    {
        MachineVariant v{"small_default", HierarchyConfig::small(),
                         CoreConfig{}};
        out.push_back(v);
    }
    {
        MachineVariant v{"kabylake", HierarchyConfig::kabyLake(),
                         CoreConfig{}};
        out.push_back(v);
    }
    {
        MachineVariant v{"small_rob64", HierarchyConfig::small(),
                         CoreConfig{}};
        v.core.robSize = 64;
        out.push_back(v);
    }
    {
        MachineVariant v{"small_issue4", HierarchyConfig::small(),
                         CoreConfig{}};
        v.core.issueWidth = 4;
        out.push_back(v);
    }
    {
        MachineVariant v{"small_cdb2", HierarchyConfig::small(),
                         CoreConfig{}};
        v.core.cdbWidth = 2;
        out.push_back(v);
    }
    return out;
}

class AcrossMachines : public ::testing::TestWithParam<unsigned>
{
  protected:
    MachineVariant variant() const { return variants()[GetParam()]; }

    /** Run the NPEU/VD-VD sender under @p scheme; return the two
     *  order signals. */
    std::pair<int, int> runBoth(SchemeKind scheme)
    {
        const MachineVariant v = variant();
        Hierarchy hier(v.hier);
        MainMemory mem;
        Core victim(v.core, 0, hier, mem);
        victim.setScheme(makeScheme(scheme));
        AttackerAgent attacker(hier, 1);
        TrialHarness harness(hier, mem, victim, attacker);
        SenderParams params;
        params.gadget = GadgetKind::Npeu;
        params.ordering = OrderingKind::VdVd;
        const SenderProgram sp = buildSender(params, hier);

        int sig[2];
        for (unsigned secret = 0; secret < 2; ++secret) {
            harness.prepare(sp, secret);
            sig[secret] = harness.run(sp).orderSignal();
        }
        return {sig[0], sig[1]};
    }
};

TEST_P(AcrossMachines, DomLeaksEverywhere)
{
    const auto [s0, s1] = runBoth(SchemeKind::DomNonTso);
    EXPECT_EQ(s0, 0) << variant().name;
    EXPECT_EQ(s1, 1) << variant().name;
}

TEST_P(AcrossMachines, FenceBlocksEverywhere)
{
    const auto [s0, s1] = runBoth(SchemeKind::FenceSpectre);
    EXPECT_EQ(s0, s1) << variant().name;
}

TEST_P(AcrossMachines, AdvancedDefenseBlocksEverywhere)
{
    const auto [s0, s1] = runBoth(SchemeKind::AdvancedDefense);
    EXPECT_EQ(s0, s1) << variant().name;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, AcrossMachines,
    ::testing::Range(0u, static_cast<unsigned>(variants().size())),
    [](const auto &info) { return variants()[info.param].name; });

TEST(Determinism, ChannelResultsAreReproducible)
{
    ChannelConfig cfg;
    cfg.scheme = SchemeKind::DomNonTso;
    cfg.trialsPerBit = 3;
    cfg.noise = NoiseConfig::calibrated();
    cfg.seed = 77;
    const auto bits = randomBits(32, 5);
    const ChannelResult a = runICacheChannel(bits, cfg);
    const ChannelResult b = runICacheChannel(bits, cfg);
    EXPECT_EQ(a.bitErrors, b.bitErrors);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.discardedTrials, b.discardedTrials);
}

TEST(Determinism, CoreRunsAreReproducible)
{
    SenderParams params;
    params.gadget = GadgetKind::Npeu;
    params.ordering = OrderingKind::VdVd;

    Tick cycles[2];
    for (int run = 0; run < 2; ++run) {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        Core victim(CoreConfig{}, 0, hier, mem);
        victim.setScheme(makeScheme(SchemeKind::InvisiSpecSpectre));
        AttackerAgent attacker(hier, 1);
        TrialHarness harness(hier, mem, victim, attacker);
        const SenderProgram sp = buildSender(params, hier);
        harness.prepare(sp, 1);
        cycles[run] = harness.run(sp).cycles;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
}

} // namespace
} // namespace specint
