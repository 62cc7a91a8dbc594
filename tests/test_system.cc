/**
 * @file
 * System-layer tests: N-core construction and configuration
 * validation, deterministic round-robin tick interleaving, per-core
 * stat isolation against solo Core runs, the shared-LLC contention
 * model, and secret recovery through the cross-core occupancy and
 * eviction channels.
 */

#include <gtest/gtest.h>

#include "attack/cross_core_probe.hh"
#include "cpu/core.hh"
#include "system/system.hh"
#include "workload/generator.hh"

namespace specint
{
namespace
{

WorkloadSpec
coreSpec(std::uint64_t seed, Addr data_base, Addr code_base)
{
    WorkloadSpec spec;
    spec.name = "sys-core-" + std::to_string(seed);
    spec.instructions = 600;
    spec.loadFrac = 0.25;
    spec.storeFrac = 0.05;
    spec.branchFrac = 0.12;
    spec.mulFrac = 0.05;
    spec.sqrtFrac = 0.02;
    spec.chaseFrac = 0.15;
    spec.footprintLines = 128;
    spec.dataBase = data_base;
    spec.codeBase = code_base;
    spec.branchTakenProb = 0.35;
    spec.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------
// Construction / validation
// ---------------------------------------------------------------------

TEST(SystemConfigValidation, DefaultIsValid)
{
    EXPECT_EQ(SystemConfig{}.validate(), "");
}

TEST(SystemConfigValidation, BadConfigsAreRejected)
{
    SystemConfig cfg;
    cfg.numCores = 0;
    EXPECT_NE(cfg.validate().find("numCores"), std::string::npos);

    cfg = SystemConfig{};
    cfg.numCores = 65;
    EXPECT_NE(cfg.validate().find("numCores"), std::string::npos);

    cfg = SystemConfig{};
    cfg.core.robSize = 0;
    EXPECT_NE(cfg.validate().find("robSize"), std::string::npos);

    cfg = SystemConfig{};
    cfg.smt.numThreads = 0;
    EXPECT_NE(cfg.validate().find("numThreads"), std::string::npos);

    cfg = SystemConfig{};
    cfg.hier.llcSlices = 3;
    EXPECT_NE(cfg.validate().find("llcSlices"), std::string::npos);

    // The hierarchy validation chain: latency ordering and geometry
    // problems surface through SystemConfig with the hier. prefix.
    cfg = SystemConfig{};
    cfg.hier.memLatency = cfg.hier.l1Latency;
    EXPECT_NE(cfg.validate().find("hier.latencies"), std::string::npos);

    cfg = SystemConfig{};
    cfg.hier.l1d.ways = 0;
    EXPECT_NE(cfg.validate().find("hier.l1d"), std::string::npos);
}

TEST(SystemConfigValidationDeathTest, ConstructorFatalsOnBadConfig)
{
    SystemConfig cfg;
    cfg.numCores = 0;
    EXPECT_EXIT(System{cfg}, ::testing::ExitedWithCode(1),
                "SystemConfig: numCores");
}

TEST(SystemTest, ConstructsNCoresOverOneHierarchy)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    System sys(cfg);
    EXPECT_EQ(sys.numCores(), 4u);
    // One id per core plus the spare direct-LLC client id.
    EXPECT_EQ(sys.hierarchy().config().cores, 5u);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(sys.core(c).id(), c);
}

// ---------------------------------------------------------------------
// Deterministic tick interleaving
// ---------------------------------------------------------------------

TEST(SystemTest, RunsAreDeterministic)
{
    const GeneratedWorkload wl0 = generateWorkload(coreSpec(3, 0x01000000, 0x400000));
    const GeneratedWorkload wl1 = generateWorkload(coreSpec(9, 0x02000000, 0x500000));

    auto run_once = [&](bool contended) {
        SystemConfig cfg;
        cfg.numCores = 2;
        if (contended) {
            cfg.hier.llcPortBusy = 2;
            cfg.hier.llcMshrs = 4;
        }
        System sys(cfg);
        for (const auto &[a, v] : wl0.memInit)
            sys.memory().write(a, v);
        for (const auto &[a, v] : wl1.memInit)
            sys.memory().write(a, v);
        return sys.run({{&wl0.prog}, {&wl1.prog}});
    };

    for (bool contended : {false, true}) {
        const SystemRunResult a = run_once(contended);
        const SystemRunResult b = run_once(contended);
        ASSERT_TRUE(a.finished);
        EXPECT_EQ(a.cycles, b.cycles) << "contended=" << contended;
        for (unsigned c = 0; c < 2; ++c) {
            EXPECT_EQ(a.cores[c].threads[0].cycles,
                      b.cores[c].threads[0].cycles);
            EXPECT_EQ(a.cores[c].threads[0].retired,
                      b.cores[c].threads[0].retired);
            EXPECT_EQ(a.cores[c].threads[0].issued,
                      b.cores[c].threads[0].issued);
        }
    }
}

TEST(SystemTest, TickStepsEveryUnfinishedCoreOncePerCycle)
{
    Program fast;
    fast.alu(1, 1, kNoReg, 1);
    fast.halt();
    Program slow;
    for (unsigned i = 0; i < 100; ++i)
        slow.alu(2, 2, kNoReg, 1);
    slow.halt();

    SystemConfig cfg;
    System sys(cfg);
    sys.beginRun({{&fast}, {&slow}});
    ASSERT_FALSE(sys.halted());
    // Lockstep while both are live.
    ASSERT_TRUE(sys.tick());
    EXPECT_EQ(sys.core(0).now(), 1u);
    EXPECT_EQ(sys.core(1).now(), 1u);
    // Run to completion: the fast core stops consuming ticks once its
    // Halt retires, the slow one continues.
    while (sys.tick()) {
    }
    EXPECT_TRUE(sys.halted());
    EXPECT_LT(sys.core(0).now(), sys.core(1).now());
    const SystemRunResult res = sys.finishRun();
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.cycles, sys.core(1).now());
    EXPECT_EQ(res.cores[0].threads[0].retired, 2u);
    EXPECT_EQ(res.cores[1].threads[0].retired, 101u);
}

// ---------------------------------------------------------------------
// Per-core stat isolation
// ---------------------------------------------------------------------

TEST(SystemTest, DisjointWorkloadsMatchSoloRunsExactly)
{
    // With the contention model off and disjoint footprints, each core
    // of a System must produce exactly the stats of a solo Core run:
    // private L1/L2 plus an LLC big enough that the cores' sets do not
    // collide keeps them independent.
    const GeneratedWorkload wl0 = generateWorkload(coreSpec(5, 0x01000000, 0x400000));
    const GeneratedWorkload wl1 = generateWorkload(coreSpec(8, 0x02000000, 0x500000));

    auto solo = [](const GeneratedWorkload &wl) {
        Hierarchy hier(HierarchyConfig::kabyLake());
        MainMemory mem;
        for (const auto &[a, v] : wl.memInit)
            mem.write(a, v);
        Core core(CoreConfig{}, 0, hier, mem);
        return core.run(wl.prog);
    };
    const CoreStats s0 = solo(wl0);
    const CoreStats s1 = solo(wl1);
    ASSERT_TRUE(s0.finished && s1.finished);

    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.hier = HierarchyConfig::kabyLake();
    System sys(cfg);
    for (const auto &[a, v] : wl0.memInit)
        sys.memory().write(a, v);
    for (const auto &[a, v] : wl1.memInit)
        sys.memory().write(a, v);
    const SystemRunResult res = sys.run({{&wl0.prog}, {&wl1.prog}});
    ASSERT_TRUE(res.finished);

    const ThreadStats &t0 = res.cores[0].threads[0];
    const ThreadStats &t1 = res.cores[1].threads[0];
    EXPECT_EQ(t0.retired, s0.retired);
    EXPECT_EQ(t0.issued, s0.issued);
    EXPECT_EQ(t0.squashes, s0.squashes);
    EXPECT_EQ(t0.loads, s0.loads);
    EXPECT_EQ(res.cores[0].cycles, s0.cycles);
    EXPECT_EQ(t1.retired, s1.retired);
    EXPECT_EQ(t1.issued, s1.issued);
    EXPECT_EQ(t1.squashes, s1.squashes);
    EXPECT_EQ(t1.loads, s1.loads);
}

// ---------------------------------------------------------------------
// Shared-level contention model
// ---------------------------------------------------------------------

TEST(SystemTest, SharedLlcContentionSlowsACoLocatedCore)
{
    // A probe core streaming uncached loads next to a memory-hammering
    // neighbour must get slower when the shared-level contention model
    // is on, and must record queueing in the hierarchy's stats.
    Program hammer(0x400000);
    for (unsigned i = 0; i < 64; ++i)
        hammer.load(static_cast<RegId>(16 + (i % 16)), kNoReg,
                    0x01000000 + 64 * i, 1);
    hammer.halt();
    Program probe(0x500000);
    for (unsigned i = 0; i < 32; ++i)
        probe.load(static_cast<RegId>(16 + (i % 16)), kNoReg,
                   0x02000000 + 64 * i, 1);
    probe.halt();
    Program idle(0x600000);
    idle.halt();

    auto probe_cycles = [&](bool hammered, unsigned llc_mshrs) {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.hier.llcPortBusy = 2;
        cfg.hier.llcMshrs = llc_mshrs;
        System sys(cfg);
        const SystemRunResult res =
            sys.run({{hammered ? &hammer : &idle}, {&probe}});
        EXPECT_TRUE(res.finished);
        EXPECT_GT(sys.hierarchy().llcContention(1).requests, 0u);
        if (hammered) {
            EXPECT_GT(sys.hierarchy().llcContention(0).queueDelay, 0u);
        }
        return res.cores[1].threads[0].cycles;
    };

    const Tick alone = probe_cycles(false, 8);
    const Tick contended = probe_cycles(true, 8);
    EXPECT_GT(contended, alone);
}

TEST(SystemTest, ContentionKnobsOffPreserveSoloLatencies)
{
    // llcPortBusy = llcMshrs = 0 must leave access latencies exactly
    // as the pre-System calibration assumed.
    SystemConfig cfg;
    System sys(cfg);
    Hierarchy &hier = sys.hierarchy();
    const MemAccessResult cold =
        hier.access(0, 0x1000, AccessType::Data, 0);
    const HierarchyConfig &h = hier.config();
    EXPECT_EQ(cold.latency,
              h.l1Latency + h.l2Latency + h.llcLatency + h.memLatency);
    EXPECT_EQ(cold.queueDelay, 0u);
    EXPECT_EQ(hier.llcContention(0).requests, 0u); // model off: untracked
}

// ---------------------------------------------------------------------
// Inclusive-LLC back-invalidation under multi-core sharing
// ---------------------------------------------------------------------

TEST(SystemTest, LlcEvictionBackInvalidatesEverySharingCore)
{
    // Two cores pull the same line into their private caches; evicting
    // it from the inclusive LLC must remove *both* private copies, not
    // just the one belonging to the core that brought it in last.
    SystemConfig cfg;
    cfg.numCores = 2;
    System sys(cfg);
    Hierarchy &hier = sys.hierarchy();

    const Addr shared = 0x9000;
    hier.access(0, shared, AccessType::Data, 0);
    hier.access(1, shared, AccessType::Data, 1);
    ASSERT_TRUE(hier.l1d(0).contains(shared));
    ASSERT_TRUE(hier.l1d(1).contains(shared));
    ASSERT_TRUE(hier.llcContains(shared));

    // Fill the line's LLC set from the spare direct client until the
    // shared line is evicted.
    const CoreId agent = static_cast<CoreId>(sys.numCores());
    const unsigned set = hier.llcSetIndex(shared);
    const unsigned slice = hier.llcSliceIndex(shared);
    const unsigned ways = hier.config().llcSlice.ways;
    unsigned filled = 0;
    Addr cand = 0xA0000000;
    while (filled < 2 * ways && hier.llcContains(shared)) {
        if (hier.llcSetIndex(cand) == set &&
            hier.llcSliceIndex(cand) == slice) {
            hier.accessDirect(agent, cand, 0);
            ++filled;
        }
        cand += kLineBytes;
    }

    EXPECT_FALSE(hier.llcContains(shared));
    EXPECT_FALSE(hier.l1d(0).contains(shared));
    EXPECT_FALSE(hier.l2(0).contains(shared));
    EXPECT_FALSE(hier.l1d(1).contains(shared));
    EXPECT_FALSE(hier.l2(1).contains(shared));
}

TEST(SystemTest, BackInvalidationDropsCoherenceDirectoryState)
{
    // Same scenario with the coherence model on: the directory's
    // sharer set for the evicted line must be dropped along with the
    // private copies.
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.hier.coherence.enabled = true;
    System sys(cfg);
    Hierarchy &hier = sys.hierarchy();

    const Addr shared = 0x9000;
    hier.access(0, shared, AccessType::Data, 0);
    hier.access(1, shared, AccessType::Data, 1);
    ASSERT_EQ(hier.coherenceDirectory().state(0, shared),
              MesiState::Shared);

    const CoreId agent = static_cast<CoreId>(sys.numCores());
    const unsigned set = hier.llcSetIndex(shared);
    const unsigned slice = hier.llcSliceIndex(shared);
    unsigned filled = 0;
    Addr cand = 0xA0000000;
    while (filled < 2 * hier.config().llcSlice.ways &&
           hier.llcContains(shared)) {
        if (hier.llcSetIndex(cand) == set &&
            hier.llcSliceIndex(cand) == slice) {
            hier.accessDirect(agent, cand, 0);
            ++filled;
        }
        cand += kLineBytes;
    }

    EXPECT_FALSE(hier.llcContains(shared));
    EXPECT_EQ(hier.coherenceDirectory().state(0, shared),
              MesiState::Invalid);
    EXPECT_EQ(hier.coherenceDirectory().state(1, shared),
              MesiState::Invalid);
}

// ---------------------------------------------------------------------
// The cross-core channels
// ---------------------------------------------------------------------

class CrossCoreChannelRecovers
    : public ::testing::TestWithParam<
          std::tuple<SchemeKind, CrossCoreChannelKind>>
{};

TEST_P(CrossCoreChannelRecovers, SecretComesThroughTheSharedLlc)
{
    const auto [scheme, kind] = GetParam();
    const std::vector<std::uint8_t> bits = randomBits(12, 123);

    CrossCoreChannelConfig cfg;
    cfg.scheme = scheme;
    cfg.attack.kind = kind;
    cfg.trialsPerBit = 1;

    const ProbeChannelResult res = runCrossCoreChannel(bits, cfg);
    EXPECT_TRUE(res.calibration.usable)
        << schemeName(scheme) << " closed the "
        << crossCoreChannelKindName(kind) << " channel";
    EXPECT_EQ(res.channel.bitErrors, 0u)
        << schemeName(scheme) << " over "
        << crossCoreChannelKindName(kind);
    EXPECT_EQ(res.channel.bitsSent, bits.size());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndKinds, CrossCoreChannelRecovers,
    ::testing::Values(
        std::make_tuple(SchemeKind::Unsafe,
                        CrossCoreChannelKind::Occupancy),
        std::make_tuple(SchemeKind::InvisiSpecSpectre,
                        CrossCoreChannelKind::Occupancy),
        std::make_tuple(SchemeKind::SafeSpecWfb,
                        CrossCoreChannelKind::Occupancy),
        std::make_tuple(SchemeKind::MuonTrap,
                        CrossCoreChannelKind::Occupancy),
        std::make_tuple(SchemeKind::Unsafe,
                        CrossCoreChannelKind::Eviction)),
    [](const auto &info) {
        return "s" +
               std::to_string(
                   static_cast<int>(std::get<0>(info.param))) +
               (std::get<1>(info.param) ==
                        CrossCoreChannelKind::Occupancy
                    ? "_occupancy"
                    : "_eviction");
    });

TEST(CrossCoreChannelTest, InvisibleSpeculationClosesEvictionOnly)
{
    // The contrast at the heart of the cross-core story: InvisiSpec
    // hides the cache-state (eviction) channel but not the shared-
    // bandwidth (occupancy) channel.
    const std::vector<std::uint8_t> bits = randomBits(4, 1);

    CrossCoreChannelConfig cfg;
    cfg.scheme = SchemeKind::InvisiSpecSpectre;
    cfg.attack.kind = CrossCoreChannelKind::Eviction;
    EXPECT_FALSE(runCrossCoreChannel(bits, cfg).calibration.usable);

    cfg.attack.kind = CrossCoreChannelKind::Occupancy;
    EXPECT_TRUE(runCrossCoreChannel(bits, cfg).calibration.usable);
}

TEST(CrossCoreChannelTest, FenceAndDomDefensesCloseBothChannels)
{
    const std::vector<std::uint8_t> bits = randomBits(4, 1);
    for (SchemeKind scheme :
         {SchemeKind::FenceSpectre, SchemeKind::DomNonTso,
          SchemeKind::AdvancedDefense}) {
        for (CrossCoreChannelKind kind :
             {CrossCoreChannelKind::Occupancy,
              CrossCoreChannelKind::Eviction}) {
            CrossCoreChannelConfig cfg;
            cfg.scheme = scheme;
            cfg.attack.kind = kind;
            EXPECT_FALSE(
                runCrossCoreChannel(bits, cfg).calibration.usable)
                << schemeName(scheme) << " left the "
                << crossCoreChannelKindName(kind) << " channel open";
        }
    }
}

TEST(CrossCoreChannelTest, LlcTraceDoesNotGrowAcrossTrials)
{
    // prepare() drops the previous trial's visible LLC trace, so a
    // long-lived harness holds one trial's worth, not every trial's.
    CrossCoreAttackParams params;
    params.kind = CrossCoreChannelKind::Eviction;
    CrossCoreHarness harness(params, SchemeKind::Unsafe);
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
