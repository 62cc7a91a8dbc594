/**
 * @file
 * Coherence and prefetcher tests: MESI directory transitions and their
 * traffic counters, write-intent invalidations through the Hierarchy,
 * speculative-store upgrade semantics, next-line/stride prefetch
 * transactions, training gates — and secret recovery through the
 * invalidation and prefetch-training channels end to end.
 */

#include <gtest/gtest.h>

#include "attack/coherence_probe.hh"
#include "memory/hierarchy.hh"
#include "system/system.hh"

namespace specint
{
namespace
{

HierarchyConfig
coherentConfig()
{
    HierarchyConfig cfg = HierarchyConfig::small();
    cfg.coherence.enabled = true;
    return cfg;
}

// ---------------------------------------------------------------------
// MESI directory transitions
// ---------------------------------------------------------------------

TEST(CoherenceDirectoryTest, FirstReaderIsExclusiveSecondShares)
{
    CoherenceDirectory dir(3, CoherenceParams{});
    const Addr line = 0x1000;

    auto r0 = dir.read(0, line, true);
    EXPECT_EQ(r0.granted, MesiState::Exclusive);
    EXPECT_EQ(dir.state(0, line), MesiState::Exclusive);

    auto r1 = dir.read(1, line, true);
    EXPECT_EQ(r1.granted, MesiState::Shared);
    // The former Exclusive owner is demoted alongside.
    EXPECT_EQ(dir.state(0, line), MesiState::Shared);
    EXPECT_EQ(dir.state(1, line), MesiState::Shared);
    EXPECT_EQ(r1.extraLatency, 0u); // clean owner: no writeback
}

TEST(CoherenceDirectoryTest, ReadOfModifiedLinePaysWriteback)
{
    CoherenceParams params;
    params.writebackLatency = 40;
    CoherenceDirectory dir(3, params);
    const Addr line = 0x2000;

    dir.read(0, line, true);
    dir.write(0, line, true);
    EXPECT_EQ(dir.state(0, line), MesiState::Modified);

    auto r1 = dir.read(1, line, true);
    EXPECT_EQ(r1.extraLatency, params.writebackLatency);
    EXPECT_EQ(dir.state(0, line), MesiState::Shared);
    EXPECT_EQ(dir.state(1, line), MesiState::Shared);
    EXPECT_EQ(dir.stats(0).downgradesReceived, 1u);
}

TEST(CoherenceDirectoryTest, WriteInvalidatesRemoteSharers)
{
    CoherenceParams params;
    params.invalidateLatency = 24;
    CoherenceDirectory dir(3, params);
    const Addr line = 0x3000;

    dir.read(0, line, true);
    dir.read(1, line, true);
    dir.read(2, line, true);

    auto w = dir.write(0, line, true);
    EXPECT_EQ(w.invalidate.size(), 2u);
    EXPECT_EQ(w.extraLatency, params.invalidateLatency);
    EXPECT_EQ(dir.state(0, line), MesiState::Modified);
    EXPECT_EQ(dir.state(1, line), MesiState::Invalid);
    EXPECT_EQ(dir.state(2, line), MesiState::Invalid);
    EXPECT_EQ(dir.stats(0).invalidationsSent, 2u);
    EXPECT_EQ(dir.stats(1).invalidationsReceived, 1u);
    EXPECT_EQ(dir.stats(2).invalidationsReceived, 1u);
}

TEST(CoherenceDirectoryTest, SoleOwnerUpgradesSilently)
{
    CoherenceDirectory dir(2, CoherenceParams{});
    const Addr line = 0x4000;
    dir.read(0, line, true);

    auto w = dir.write(0, line, true);
    EXPECT_TRUE(w.invalidate.empty());
    EXPECT_EQ(w.extraLatency, 0u);
    EXPECT_EQ(dir.state(0, line), MesiState::Modified);
}

TEST(CoherenceDirectoryTest, DeferredUpgradeInvalidatesButTakesNoState)
{
    CoherenceDirectory dir(3, CoherenceParams{});
    const Addr line = 0x5000;
    dir.read(1, line, true);
    dir.read(2, line, true);

    // The InvisiSpec-style speculative RFO: remote sharers go, the
    // requester's own upgrade waits for the safe point.
    auto w = dir.write(0, line, /*take_ownership=*/false);
    EXPECT_EQ(w.invalidate.size(), 2u);
    EXPECT_EQ(dir.state(0, line), MesiState::Invalid);
    EXPECT_EQ(dir.state(1, line), MesiState::Invalid);
    EXPECT_EQ(dir.state(2, line), MesiState::Invalid);
}

TEST(CoherenceDirectoryTest, StatsCountMessages)
{
    CoherenceDirectory dir(2, CoherenceParams{});
    const Addr line = 0x6000;
    dir.read(0, line, true);  // core 0 becomes Exclusive owner
    dir.read(1, line, true);  // core 0 downgraded, core 1 shares
    dir.write(1, line, true); // core 0 invalidated, core 1 upgrades

    const CoherenceStats &c0 = dir.stats(0);
    const CoherenceStats &c1 = dir.stats(1);
    EXPECT_EQ(c0.exclusiveGrants, 1u);
    EXPECT_EQ(c0.downgradesReceived, 1u);
    EXPECT_EQ(c0.invalidationsReceived, 1u);
    EXPECT_EQ(c0.invalidationsSent, 0u);
    EXPECT_EQ(c0.upgrades, 0u);
    EXPECT_EQ(c1.exclusiveGrants, 0u);
    EXPECT_EQ(c1.invalidationsSent, 1u);
    EXPECT_EQ(c1.invalidationsReceived, 0u);
    EXPECT_EQ(c1.upgrades, 1u);
}

// ---------------------------------------------------------------------
// Coherence through the Hierarchy
// ---------------------------------------------------------------------

TEST(HierarchyCoherenceTest, WriteIntentInvalidatesRemotePrivateCopy)
{
    Hierarchy hier(coherentConfig());
    const Addr a = 0x1000;

    hier.access(1, a, AccessType::Data, 0);
    ASSERT_TRUE(hier.l1d(1).contains(a));

    const MemAccessResult w =
        hier.access(0, a, AccessType::Data, 1, MemIntent::Write);
    EXPECT_EQ(w.invalidations, 1u);
    EXPECT_GT(w.coherenceDelay, 0u);
    EXPECT_FALSE(hier.l1d(1).contains(a));
    EXPECT_FALSE(hier.l2(1).contains(a));
    // The LLC copy survives: only private copies are invalidated.
    EXPECT_TRUE(hier.llcContains(a));
    EXPECT_EQ(hier.coherenceStats(0).invalidationsSent, 1u);
    EXPECT_EQ(hier.coherenceStats(1).invalidationsReceived, 1u);
}

TEST(HierarchyCoherenceTest, SpecStoreUpgradeIsIrrevocable)
{
    Hierarchy hier(coherentConfig());
    const Addr a = 0x2000;
    hier.access(1, a, AccessType::Data, 0);
    ASSERT_TRUE(hier.l1d(1).contains(a));

    // Deferred-upgrade RFO (InvisiSpec-style): the remote copy is
    // gone even though the requester never took ownership — and
    // nothing ever "squashes" it back in.
    const Tick extra = hier.specStoreUpgrade(0, a, 1, false);
    EXPECT_GT(extra, 0u);
    EXPECT_FALSE(hier.l1d(1).contains(a));
    EXPECT_EQ(hier.coherenceDirectory().state(0, a),
              MesiState::Invalid);
}

TEST(HierarchyCoherenceTest, OffByDefaultChangesNothing)
{
    Hierarchy hier(HierarchyConfig::small());
    const Addr a = 0x3000;
    hier.access(1, a, AccessType::Data, 0);
    const MemAccessResult w =
        hier.access(0, a, AccessType::Data, 1, MemIntent::Write);
    EXPECT_EQ(w.invalidations, 0u);
    EXPECT_EQ(w.coherenceDelay, 0u);
    EXPECT_TRUE(hier.l1d(1).contains(a));
    EXPECT_EQ(hier.specStoreUpgrade(0, a, 2, true), 0u);
    for (const CoreId c : {CoreId{0}, CoreId{1}}) {
        const CoherenceStats &st = hier.coherenceStats(c);
        EXPECT_EQ(st.invalidationsSent, 0u) << int{c};
        EXPECT_EQ(st.invalidationsReceived, 0u) << int{c};
        EXPECT_EQ(st.downgradesReceived, 0u) << int{c};
        EXPECT_EQ(st.upgrades, 0u) << int{c};
        EXPECT_EQ(st.exclusiveGrants, 0u) << int{c};
    }
}

TEST(HierarchyCoherenceTest, SpareDirectClientIdWorksStandalone)
{
    // A standalone Hierarchy must honour the spare direct-LLC client
    // convention (id == cores) with coherence enabled: the direct
    // read downgrades a dirty owner without joining the sharer set.
    Hierarchy hier(coherentConfig());
    const CoreId spare =
        static_cast<CoreId>(hier.config().cores);
    const Addr a = 0x6000;

    hier.access(0, a, AccessType::Data, 0);
    hier.access(0, a, AccessType::Data, 1, MemIntent::Write);
    ASSERT_EQ(hier.coherenceDirectory().state(0, a),
              MesiState::Modified);

    const MemAccessResult r = hier.accessDirect(spare, a, 2);
    EXPECT_GT(r.coherenceDelay, 0u); // paid the dirty writeback
    EXPECT_EQ(hier.coherenceDirectory().state(0, a),
              MesiState::Shared);
    EXPECT_TRUE(hier.coherenceDirectory().sharers(a).size() == 1);
}

TEST(HierarchyCoherenceTest, FlushDropsDirectoryState)
{
    Hierarchy hier(coherentConfig());
    const Addr a = 0x4000;
    hier.access(0, a, AccessType::Data, 0);
    EXPECT_NE(hier.coherenceDirectory().state(0, a),
              MesiState::Invalid);
    hier.flushLine(a);
    EXPECT_EQ(hier.coherenceDirectory().state(0, a),
              MesiState::Invalid);
}

// ---------------------------------------------------------------------
// Prefetcher
// ---------------------------------------------------------------------

TEST(PrefetcherTest, NextLinePrefetchFillsL2AndLlcNotL1)
{
    HierarchyConfig cfg = HierarchyConfig::small();
    cfg.prefetch.kind = PrefetchKind::NextLine;
    cfg.prefetch.degree = 2;
    Hierarchy hier(cfg);

    const Addr a = 0x8000;
    hier.access(0, a, AccessType::Data, 0);

    for (unsigned d = 1; d <= 2; ++d) {
        const Addr next = a + d * kLineBytes;
        EXPECT_TRUE(hier.llcContains(next)) << d;
        EXPECT_TRUE(hier.l2(0).contains(next)) << d;
        EXPECT_FALSE(hier.l1d(0).contains(next)) << d;
    }
    EXPECT_EQ(hier.prefetchStats(0).issued, 2u);
    EXPECT_EQ(hier.prefetchStats(0).llcFills, 2u);
}

TEST(PrefetcherTest, PrefetchTransactionsAppearInTheLlcTrace)
{
    HierarchyConfig cfg = HierarchyConfig::small();
    cfg.prefetch.kind = PrefetchKind::NextLine;
    Hierarchy hier(cfg);

    hier.access(0, 0x8000, AccessType::Data, 5);
    bool saw_prefetch = false;
    for (const VisibleAccess &va : hier.llcTrace()) {
        if (va.source == TxnSource::Prefetch) {
            saw_prefetch = true;
            EXPECT_EQ(va.lineAddr, lineAlign(0x8000 + kLineBytes));
        }
    }
    EXPECT_TRUE(saw_prefetch);
}

TEST(PrefetcherTest, InvisibleAccessTrainsOnlyWhenAsked)
{
    HierarchyConfig cfg = HierarchyConfig::small();
    cfg.prefetch.kind = PrefetchKind::NextLine;
    Hierarchy hier(cfg);

    const Addr a = 0x20000;
    hier.accessInvisible(0, a, AccessType::Data, 0, /*train=*/false);
    EXPECT_EQ(hier.prefetchStats(0).issued, 0u);
    EXPECT_FALSE(hier.llcContains(a + kLineBytes));

    // The InvisiSpec leak: the demand request changes no state, but
    // the prefetch it trains is an ordinary visible fill.
    hier.accessInvisible(0, a, AccessType::Data, 1, /*train=*/true);
    EXPECT_EQ(hier.prefetchStats(0).issued, 1u);
    EXPECT_FALSE(hier.llcContains(a)); // demand stayed invisible
    EXPECT_TRUE(hier.llcContains(a + kLineBytes)); // prefetch did not
}

TEST(PrefetcherTest, OffByDefaultIssuesNothing)
{
    Hierarchy hier(HierarchyConfig::small());
    hier.access(0, 0x8000, AccessType::Data, 0);
    EXPECT_FALSE(hier.llcContains(0x8000 + kLineBytes));
    EXPECT_EQ(hier.prefetchStats(0).issued, 0u);
}

// ---------------------------------------------------------------------
// The end-to-end channels
// ---------------------------------------------------------------------

class CoherenceChannelRecovers
    : public ::testing::TestWithParam<
          std::tuple<SchemeKind, CoherenceChannelKind>>
{};

TEST_P(CoherenceChannelRecovers, SecretComesThroughTheRequest)
{
    const auto [scheme, kind] = GetParam();
    const std::vector<std::uint8_t> bits = randomBits(12, 123);

    CoherenceChannelConfig cfg;
    cfg.scheme = scheme;
    cfg.attack.kind = kind;
    cfg.trialsPerBit = 1;

    const ProbeChannelResult res = runCoherenceChannel(bits, cfg);
    EXPECT_TRUE(res.calibration.usable)
        << schemeName(scheme) << " closed the "
        << coherenceChannelKindName(kind) << " channel";
    EXPECT_EQ(res.channel.bitErrors, 0u)
        << schemeName(scheme) << " over "
        << coherenceChannelKindName(kind);
    EXPECT_EQ(res.channel.bitsSent, bits.size());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndKinds, CoherenceChannelRecovers,
    ::testing::Values(
        std::make_tuple(SchemeKind::Unsafe,
                        CoherenceChannelKind::Invalidation),
        std::make_tuple(SchemeKind::InvisiSpecSpectre,
                        CoherenceChannelKind::Invalidation),
        std::make_tuple(SchemeKind::SafeSpecWfb,
                        CoherenceChannelKind::Invalidation),
        std::make_tuple(SchemeKind::MuonTrap,
                        CoherenceChannelKind::Invalidation),
        std::make_tuple(SchemeKind::Unsafe,
                        CoherenceChannelKind::PrefetchTraining),
        std::make_tuple(SchemeKind::InvisiSpecSpectre,
                        CoherenceChannelKind::PrefetchTraining),
        std::make_tuple(SchemeKind::MuonTrap,
                        CoherenceChannelKind::PrefetchTraining)),
    [](const auto &info) {
        return "s" +
               std::to_string(
                   static_cast<int>(std::get<0>(info.param))) +
               (std::get<1>(info.param) ==
                        CoherenceChannelKind::Invalidation
                    ? "_invalidation"
                    : "_prefetch");
    });

TEST(CoherenceChannelTest, DomAndFencesCloseBothChannels)
{
    const std::vector<std::uint8_t> bits = randomBits(4, 1);
    for (SchemeKind scheme :
         {SchemeKind::DomNonTso, SchemeKind::ConditionalSpec,
          SchemeKind::FenceSpectre, SchemeKind::FenceFuturistic,
          SchemeKind::AdvancedDefense}) {
        for (CoherenceChannelKind kind :
             {CoherenceChannelKind::Invalidation,
              CoherenceChannelKind::PrefetchTraining}) {
            CoherenceChannelConfig cfg;
            cfg.scheme = scheme;
            cfg.attack.kind = kind;
            EXPECT_FALSE(
                runCoherenceChannel(bits, cfg).calibration.usable)
                << schemeName(scheme) << " left the "
                << coherenceChannelKindName(kind) << " channel open";
        }
    }
}

TEST(CoherenceChannelTest, InvalidationLeavesCoherenceTraffic)
{
    // The channel's physical substrate: a secret=1 trial must
    // invalidate the probe core's copy, a secret=0 trial must not.
    CoherenceAttackParams params;
    params.kind = CoherenceChannelKind::Invalidation;
    CoherenceHarness harness(params, SchemeKind::InvisiSpecSpectre);
    const Hierarchy &hier = harness.system().hierarchy();
    const auto trialInvalidations = [&](unsigned secret) {
        harness.prepare(secret);
        const std::uint64_t before =
            hier.coherenceStats(1).invalidationsReceived;
        harness.runTrial();
        return hier.coherenceStats(1).invalidationsReceived - before;
    };

    EXPECT_EQ(trialInvalidations(0), 0u);
    EXPECT_GT(trialInvalidations(1), 0u);
}

TEST(CoherenceChannelTest, LlcTraceDoesNotGrowAcrossTrials)
{
    // prepare() drops the previous trial's visible LLC trace, so a
    // long-lived harness holds one trial's worth, not every trial's.
    CoherenceAttackParams params;
    params.kind = CoherenceChannelKind::PrefetchTraining;
    CoherenceHarness harness(params, SchemeKind::InvisiSpecSpectre);
    const Hierarchy &hier = harness.system().hierarchy();
    harness.prepare(0);
    harness.runTrial();
    const std::size_t first = hier.llcTrace().size();
    EXPECT_GT(first, 0u);
    for (unsigned t = 1; t < 10; ++t) {
        harness.prepare(0);
        harness.runTrial();
    }
    EXPECT_LE(hier.llcTrace().size(), first);
}

} // namespace
} // namespace specint
