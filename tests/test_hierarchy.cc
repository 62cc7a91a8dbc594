/**
 * @file
 * Hierarchy tests: level latencies, fills, inclusivity, invisible
 * accesses, the visible LLC trace (C(E)), flush and direct access.
 */

#include <gtest/gtest.h>

#include "memory/hierarchy.hh"

namespace specint
{
namespace
{

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest() : hier(HierarchyConfig::small()) {}
    Hierarchy hier;
    const HierarchyConfig &cfg = hier.config();
};

TEST_F(HierarchyTest, ColdMissGoesToMemoryAndFillsAllLevels)
{
    const Addr a = 0x1000;
    const auto r = hier.access(0, a, AccessType::Data, 0);
    EXPECT_EQ(r.servedBy, ServedBy::Mem);
    EXPECT_EQ(r.latency, cfg.l1Latency + cfg.l2Latency +
                             cfg.llcLatency + cfg.memLatency);
    EXPECT_TRUE(hier.l1d(0).contains(a));
    EXPECT_TRUE(hier.l2(0).contains(a));
    EXPECT_TRUE(hier.llcContains(a));
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    const Addr a = 0x1000;
    hier.access(0, a, AccessType::Data, 0);
    const auto r = hier.access(0, a, AccessType::Data, 1);
    EXPECT_EQ(r.servedBy, ServedBy::L1);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, cfg.l1Latency);
}

TEST_F(HierarchyTest, InstrAndDataUseSeparateL1s)
{
    const Addr a = 0x2000;
    hier.access(0, a, AccessType::Data, 0);
    EXPECT_TRUE(hier.l1d(0).contains(a));
    EXPECT_FALSE(hier.l1i(0).contains(a));
    const auto r = hier.access(0, a, AccessType::Instr, 1);
    EXPECT_EQ(r.servedBy, ServedBy::L2); // L2 is unified
}

TEST_F(HierarchyTest, CrossCoreSharesOnlyLlc)
{
    const Addr a = 0x3000;
    hier.access(0, a, AccessType::Data, 0);
    const auto r = hier.access(1, a, AccessType::Data, 1);
    EXPECT_EQ(r.servedBy, ServedBy::Llc); // hits in the shared LLC
    EXPECT_TRUE(r.llcHit);
}

TEST_F(HierarchyTest, InvisibleAccessChangesNoState)
{
    const Addr a = 0x4000;
    const auto r = hier.accessInvisible(0, a, AccessType::Data, 0);
    EXPECT_EQ(r.servedBy, ServedBy::Mem);
    EXPECT_FALSE(hier.l1d(0).contains(a));
    EXPECT_FALSE(hier.llcContains(a));
    EXPECT_TRUE(hier.llcTrace().empty());
}

TEST_F(HierarchyTest, InvisibleAccessReportsCorrectLevel)
{
    const Addr a = 0x5000;
    hier.access(0, a, AccessType::Data, 0);
    hier.l1d(0).invalidate(a);
    hier.l2(0).invalidate(a);
    const auto r = hier.accessInvisible(0, a, AccessType::Data, 1);
    EXPECT_EQ(r.servedBy, ServedBy::Llc);
    EXPECT_TRUE(r.llcHit);
}

TEST_F(HierarchyTest, TraceRecordsOnlyLlcReachingAccesses)
{
    const Addr a = 0x6000;
    hier.access(0, a, AccessType::Data, 5); // cold: reaches LLC
    hier.access(0, a, AccessType::Data, 6); // L1 hit: no trace entry
    ASSERT_EQ(hier.llcTrace().size(), 1u);
    EXPECT_EQ(hier.llcTrace()[0].lineAddr, lineAlign(a));
    EXPECT_EQ(hier.llcTrace()[0].core, 0);
    EXPECT_EQ(hier.llcTrace()[0].when, 5u);
}

TEST_F(HierarchyTest, FlushRemovesLineEverywhere)
{
    const Addr a = 0x7000;
    hier.access(0, a, AccessType::Data, 0);
    hier.access(1, a, AccessType::Data, 0);
    hier.flushLine(a);
    EXPECT_FALSE(hier.l1d(0).contains(a));
    EXPECT_FALSE(hier.l1d(1).contains(a));
    EXPECT_FALSE(hier.l2(0).contains(a));
    EXPECT_FALSE(hier.llcContains(a));
}

TEST_F(HierarchyTest, DirectAccessTouchesOnlyLlc)
{
    const Addr a = 0x8000;
    const auto r1 = hier.accessDirect(1, a, 0);
    EXPECT_EQ(r1.servedBy, ServedBy::Mem);
    EXPECT_FALSE(hier.l1d(1).contains(a));
    EXPECT_TRUE(hier.llcContains(a));
    const auto r2 = hier.accessDirect(1, a, 1);
    EXPECT_EQ(r2.servedBy, ServedBy::Llc);
    EXPECT_LT(r2.latency, hier.llcHitThreshold());
    EXPECT_GE(r1.latency, hier.llcHitThreshold());
}

TEST_F(HierarchyTest, InclusiveLlcBackInvalidatesPrivateCopies)
{
    // Fill one LLC set completely from the attacker side and verify a
    // victim-private copy of the evicted line disappears.
    const Addr victim_line = 0x9000;
    hier.access(0, victim_line, AccessType::Data, 0);
    ASSERT_TRUE(hier.l1d(0).contains(victim_line));

    const unsigned set = hier.llcSetIndex(victim_line);
    const unsigned slice = hier.llcSliceIndex(victim_line);
    const unsigned ways = hier.config().llcSlice.ways;
    unsigned filled = 0;
    Addr cand = 0xA0000000;
    while (filled < 2 * ways) {
        if (hier.llcSetIndex(cand) == set &&
            hier.llcSliceIndex(cand) == slice) {
            hier.accessDirect(1, cand, 0);
            ++filled;
        }
        cand += kLineBytes;
    }
    EXPECT_FALSE(hier.llcContains(victim_line));
    EXPECT_FALSE(hier.l1d(0).contains(victim_line));
}

TEST_F(HierarchyTest, DeferredTouchReachesL1)
{
    const Addr a = 0xB000;
    hier.access(0, a, AccessType::Data, 0);
    // Smoke: the deferred-touch path must not disturb residency.
    hier.l1DeferredTouch(0, a, AccessType::Data);
    EXPECT_TRUE(hier.l1d(0).contains(a));
}

TEST_F(HierarchyTest, SliceIndexIsStableAndBounded)
{
    for (Addr a = 0; a < 0x100000; a += 0x1234) {
        const unsigned s = hier.llcSliceIndex(a);
        EXPECT_LT(s, cfg.llcSlices);
        EXPECT_EQ(s, hier.llcSliceIndex(a));
    }
}

// ---------------------------------------------------------------------
// HierarchyConfig::validate
// ---------------------------------------------------------------------

TEST(HierarchyConfigValidate, DefaultsAreValid)
{
    EXPECT_EQ(HierarchyConfig{}.validate(), "");
    EXPECT_EQ(HierarchyConfig::small().validate(), "");
    EXPECT_EQ(HierarchyConfig::kabyLake().validate(), "");
}

TEST(HierarchyConfigValidate, RejectsZeroCores)
{
    HierarchyConfig cfg;
    cfg.cores = 0;
    EXPECT_NE(cfg.validate().find("cores"), std::string::npos);
}

TEST(HierarchyConfigValidate, RejectsZeroGeometries)
{
    HierarchyConfig cfg;
    cfg.l1d.sets = 0;
    EXPECT_NE(cfg.validate().find("l1d"), std::string::npos);

    cfg = HierarchyConfig{};
    cfg.l2.ways = 0;
    EXPECT_NE(cfg.validate().find("l2"), std::string::npos);

    cfg = HierarchyConfig{};
    cfg.llcSlice.sets = 0;
    EXPECT_NE(cfg.validate().find("llc"), std::string::npos);
}

TEST(HierarchyConfigValidate, RejectsWaysAboveTheInlineCapacity)
{
    // Replacement state is stored inline with room for kMaxCacheWays
    // ways per set; a wider geometry is a configuration error, not a
    // buffer overrun.
    HierarchyConfig cfg = HierarchyConfig::small();
    cfg.llcSlice.ways = kMaxCacheWays;
    EXPECT_EQ(cfg.validate(), "");
    cfg.llcSlice.ways = kMaxCacheWays + 1;
    EXPECT_NE(cfg.validate().find("llc geometry has " +
                                  std::to_string(kMaxCacheWays + 1) +
                                  " ways"),
              std::string::npos)
        << cfg.validate();

    cfg = HierarchyConfig::small();
    cfg.l1d.ways = 32;
    EXPECT_NE(cfg.validate().find("l1d"), std::string::npos);
}

TEST(HierarchyConfigValidate, RejectsNonPowerOfTwoSliceCount)
{
    HierarchyConfig cfg;
    for (unsigned bad : {0u, 3u, 6u, 12u}) {
        cfg.llcSlices = bad;
        EXPECT_NE(cfg.validate().find("llcSlices"), std::string::npos)
            << bad;
    }
    for (unsigned good : {1u, 2u, 4u, 8u}) {
        cfg.llcSlices = good;
        EXPECT_EQ(cfg.validate(), "") << good;
    }
}

TEST(HierarchyConfigValidate, RejectsUnorderedLatencies)
{
    HierarchyConfig cfg;
    cfg.l2Latency = cfg.l1Latency; // l1 < l2 violated
    EXPECT_NE(cfg.validate().find("ordered"), std::string::npos);

    cfg = HierarchyConfig{};
    cfg.llcLatency = cfg.memLatency + 1;
    EXPECT_NE(cfg.validate().find("ordered"), std::string::npos);
}

TEST(HierarchyConfigValidate, RejectsBadPrefetchParams)
{
    HierarchyConfig cfg;
    cfg.prefetch.kind = PrefetchKind::NextLine;
    cfg.prefetch.degree = 0;
    EXPECT_NE(cfg.validate().find("degree"), std::string::npos);

    cfg = HierarchyConfig{};
    cfg.prefetch.kind = PrefetchKind::Stride;
    cfg.prefetch.streamTableSize = 0;
    EXPECT_NE(cfg.validate().find("streamTableSize"),
              std::string::npos);
}

TEST(HierarchyConfigValidateDeathTest, ConstructorFatalsOnBadConfig)
{
    HierarchyConfig cfg;
    cfg.llcSlices = 3;
    EXPECT_EXIT(Hierarchy{cfg}, ::testing::ExitedWithCode(1),
                "HierarchyConfig: llcSlices");
}

TEST_F(HierarchyTest, MainMemoryReadsBackWrites)
{
    MainMemory mem;
    EXPECT_EQ(mem.read(0x100), 0u);
    mem.write(0x100, 42);
    EXPECT_EQ(mem.read(0x100), 42u);
    EXPECT_EQ(mem.read(0x104), 42u); // same word
    mem.write(0x108, 7);
    EXPECT_EQ(mem.read(0x108), 7u);
}

} // namespace
} // namespace specint
