/**
 * @file
 * Differential golden-trace harness.
 *
 * The one place where the simulator's reported numbers are pinned:
 * every registered scenario point runs at fixed seeds through both
 * engine paths — run(), which skips dead cycles, and the literal
 * tick-every-cycle loop (tests/literal_loop.hh) — and both must
 * reproduce the golden cycle counts, final stats, architectural
 * register file and channel verdicts exactly. The golden rows were
 * captured from the pre-unification Core pipeline (commit affb3f5)
 * and promoted here from test_smt.cc; any divergence — from the
 * arena-backed ROB, the fast-forward skip logic or a future rewrite —
 * fails loudly with the path name.
 *
 * tests/test_fastforward_fuzz.cc complements this with randomized
 * differential coverage; this file is the fixed-seed anchor.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "attack/channel.hh"
#include "attack/smt_probe.hh"
#include "cpu/core.hh"
#include "literal_loop.hh"
#include "memory/hierarchy.hh"
#include "smt/smt_core.hh"
#include "spec/scheme.hh"
#include "system/system.hh"
#include "workload/generator.hh"

namespace specint
{
namespace
{

WorkloadSpec
fuzzSpec(std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.name = "smt-fuzz";
    spec.instructions = 1000;
    spec.loadFrac = 0.30;
    spec.storeFrac = 0.08;
    spec.branchFrac = 0.15;
    spec.mulFrac = 0.05;
    spec.sqrtFrac = 0.03;
    spec.chaseFrac = 0.25;
    spec.footprintLines = 512;
    spec.branchTakenProb = 0.35;
    spec.seed = seed;
    return spec;
}

/** The engine paths every golden point must agree across. */
struct EngineVariant
{
    const char *name;
    /** Tick every cycle through the incremental API instead of run(). */
    bool literal;
};

constexpr EngineVariant kVariants[] = {
    {"run", false},
    {"literal", true},
};

/** Run @p prog on @p core through the façade's run() or, for the
 *  literal variant, the tick loop on its engine. */
EngineRunResult
runCore(Core &core, const Program &prog, const EngineVariant &v)
{
    if (v.literal)
        return literalRun(core.engine(), {&prog});
    const CoreStats s = core.run(prog);
    EngineRunResult res;
    res.cycles = s.cycles;
    res.finished = s.finished;
    ThreadStats &st = res.threads.emplace_back();
    st.retired = s.retired;
    st.issued = s.issued;
    st.squashes = s.squashes;
    st.branches = s.branches;
    st.mispredicts = s.mispredicts;
    st.loads = s.loads;
    st.loadL1Hits = s.loadL1Hits;
    return res;
}

// ---------------------------------------------------------------------
// Golden rows (captured from the pre-unification pipeline)
// ---------------------------------------------------------------------

/**
 * One golden data point, captured from the independent pre-refactor
 * Core pipeline (commit affb3f5, before Core/SmtCore were folded into
 * the unified engine) running the fuzz workloads above. Any behaviour
 * change in the unified engine — via the Core façade or SmtCore with
 * one thread, under any engine variant — shows up as a
 * cycle/stat/register divergence here.
 */
struct GoldenTrace
{
    std::uint64_t seed;
    SchemeKind kind;
    Tick cycles;
    std::uint64_t retired, issued, squashes, branches, mispredicts;
    std::uint64_t loads, loadL1Hits;
    /** FNV-1a over the final architectural register file. */
    std::uint64_t regHash;
};

constexpr GoldenTrace kGoldenTraces[] = {
    {11u, SchemeKind::Unsafe, 13628, 882, 1383, 62, 122, 62, 399, 136, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::DomNonTso, 22072, 882, 2858, 66, 152, 66, 1047, 67, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::InvisiSpecSpectre, 14322, 882, 1745, 65, 132, 65, 492, 32, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::SafeSpecWfb, 25322, 882, 1172, 61, 121, 61, 347, 23, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::MuonTrap, 25334, 882, 1172, 61, 121, 61, 347, 11, 0x6ad714dbbfc53ca0ULL},
    {11u, SchemeKind::AdvancedDefense, 22079, 882, 2393, 64, 141, 64, 901, 59, 0x6ad714dbbfc53ca0ULL},
    {37u, SchemeKind::Unsafe, 14905, 888, 1417, 60, 103, 60, 420, 153, 0xea29e7580253d790ULL},
    {37u, SchemeKind::DomNonTso, 20712, 888, 3011, 61, 124, 61, 1029, 68, 0xea29e7580253d790ULL},
    {37u, SchemeKind::InvisiSpecSpectre, 16973, 888, 1955, 62, 110, 62, 581, 32, 0xea29e7580253d790ULL},
    {37u, SchemeKind::SafeSpecWfb, 25941, 888, 1207, 61, 104, 61, 352, 22, 0xea29e7580253d790ULL},
    {37u, SchemeKind::MuonTrap, 25877, 888, 1199, 61, 104, 61, 350, 6, 0xea29e7580253d790ULL},
    {37u, SchemeKind::AdvancedDefense, 20672, 888, 2670, 61, 116, 61, 925, 61, 0xea29e7580253d790ULL},
    {71u, SchemeKind::Unsafe, 12321, 881, 1348, 59, 115, 59, 319, 109, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::DomNonTso, 19104, 881, 3058, 60, 142, 60, 768, 72, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::InvisiSpecSpectre, 15653, 881, 1600, 62, 131, 62, 383, 32, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::SafeSpecWfb, 25902, 881, 1180, 59, 116, 59, 270, 21, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::MuonTrap, 25902, 881, 1180, 59, 116, 59, 270, 15, 0x642497def1f7cc6aULL},
    {71u, SchemeKind::AdvancedDefense, 19105, 881, 2740, 60, 143, 60, 730, 70, 0x642497def1f7cc6aULL},
};

std::uint64_t
fnv1aRegs(const std::function<std::uint64_t(RegId)> &reg)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned r = 0; r < kNumRegs; ++r) {
        const std::uint64_t v = reg(static_cast<RegId>(r));
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

void
expectMatchesGolden(const GoldenTrace &g, const ThreadStats &st,
                    Tick cycles, std::uint64_t reg_hash,
                    const char *variant)
{
    EXPECT_EQ(cycles, g.cycles) << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.retired, g.retired)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.issued, g.issued) << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.squashes, g.squashes)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.branches, g.branches)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.mispredicts, g.mispredicts)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.loads, g.loads) << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(st.loadL1Hits, g.loadL1Hits)
        << schemeName(g.kind) << " " << variant;
    EXPECT_EQ(reg_hash, g.regHash)
        << schemeName(g.kind) << " " << variant
        << " architectural state diverged";
}

class GoldenTraceTest : public ::testing::TestWithParam<GoldenTrace>
{};

TEST_P(GoldenTraceTest, CoreFacadeMatchesGoldenUnderEveryVariant)
{
    const GoldenTrace &g = GetParam();
    const GeneratedWorkload wl = generateWorkload(fuzzSpec(g.seed));

    for (const EngineVariant &v : kVariants) {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        for (const auto &[a, v2] : wl.memInit)
            mem.write(a, v2);
        Core core(CoreConfig{}, 0, hier, mem);
        core.setScheme(makeScheme(g.kind));
        const EngineRunResult run = runCore(core, wl.prog, v);

        ASSERT_TRUE(run.finished) << schemeName(g.kind) << " " << v.name;
        expectMatchesGolden(
            g, run.threads[0], run.cycles,
            fnv1aRegs([&](RegId r) { return core.archReg(r); }), v.name);
    }
}

TEST_P(GoldenTraceTest, SingleThreadSmtCoreMatchesGoldenUnderEveryVariant)
{
    const GoldenTrace &g = GetParam();
    const GeneratedWorkload wl = generateWorkload(fuzzSpec(g.seed));

    for (const EngineVariant &v : kVariants) {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        for (const auto &[a, v2] : wl.memInit)
            mem.write(a, v2);
        SmtCore smt(CoreConfig{}, SmtConfig::singleThread(), 0, hier, mem);
        smt.setScheme(0, makeScheme(g.kind));
        const SmtRunResult run = v.literal
                                     ? literalRun(smt.engine(), {&wl.prog})
                                     : smt.run({&wl.prog});

        ASSERT_TRUE(run.finished) << schemeName(g.kind) << " " << v.name;
        expectMatchesGolden(
            g, run.threads[0], run.cycles,
            fnv1aRegs([&](RegId r) { return smt.archReg(0, r); }),
            v.name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSchemes, GoldenTraceTest, ::testing::ValuesIn(kGoldenTraces),
    [](const auto &info) {
        return "seed" + std::to_string(info.param.seed) + "_" +
               std::to_string(static_cast<int>(info.param.kind));
    });

// ---------------------------------------------------------------------
// Two-thread issue behaviour, pinned to constants. run() and the
// literal loop tick the same issue stage, so only constants catch a
// change to cross-thread issue arbitration; the sibling-occupancy
// integrals pin how long each thread saw its sibling hold port 0 and
// the MSHRs, so run() must also account them exactly over every
// skipped span.
// ---------------------------------------------------------------------

/** Per-thread pin of one two-thread run. */
struct SmtThreadGolden
{
    Tick cycles;
    std::uint64_t issued, retired;
    std::uint64_t portContended, mshrContended, rsBlocked;
    std::uint64_t siblingPort0, siblingMshr;
};

/** One SMT golden row: thread 0 (the victim) runs @ref victim, thread
 *  1 runs Unsafe, with the RS under the @ref rs sharing policy. The
 *  rows were captured from the engine whose issue stage re-collected
 *  and sorted its candidates every cycle; the sibling integrals are
 *  sums over the per-cycle contention samples that engine recorded. */
struct SmtGolden
{
    SchemeKind victim;
    SharingPolicy rs;
    SmtThreadGolden t[2];
};

void
PrintTo(const SmtGolden &g, std::ostream *os)
{
    *os << schemeName(g.victim) << " victim, "
        << (g.rs == SharingPolicy::Shared ? "shared" : "partitioned")
        << " RS";
}

constexpr SmtGolden kSmtGoldens[] = {
    {SchemeKind::Unsafe, SharingPolicy::Shared,
     {{13698, 1396, 882, 13, 81, 0, 608, 49456},
      {15422, 1527, 888, 30, 109, 0, 410, 50197}}},
    {SchemeKind::Unsafe, SharingPolicy::Partitioned,
     {{13698, 1396, 882, 13, 81, 0, 608, 49456},
      {15422, 1527, 888, 30, 109, 0, 410, 50197}}},
    {SchemeKind::DomNonTso, SharingPolicy::Shared,
     {{22377, 2924, 882, 78, 21, 7692, 517, 46811},
      {15329, 1461, 888, 49, 25, 4191, 1157, 60504}}},
    {SchemeKind::DomNonTso, SharingPolicy::Partitioned,
     {{22785, 2590, 882, 83, 18, 9003, 511, 45234},
      {15319, 1471, 888, 37, 42, 0, 1006, 60544}}},
    {SchemeKind::InvisiSpecSpectre, SharingPolicy::Shared,
     {{16799, 2307, 882, 71, 473, 0, 690, 52904},
      {16241, 1666, 888, 115, 278, 0, 787, 92972}}},
    {SchemeKind::InvisiSpecSpectre, SharingPolicy::Partitioned,
     {{16799, 2305, 882, 68, 477, 1650, 704, 52905},
      {16241, 1679, 888, 107, 281, 0, 787, 92970}}},
    {SchemeKind::AdvancedDefense, SharingPolicy::Shared,
     {{22373, 2480, 882, 118, 14, 14942, 506, 46832},
      {16889, 1418, 888, 89, 31, 9399, 1022, 60560}}},
    {SchemeKind::AdvancedDefense, SharingPolicy::Partitioned,
     {{23205, 1808, 882, 48, 21, 14732, 529, 44546},
      {15224, 1434, 888, 29, 30, 0, 695, 60440}}},
};

/** The fuzz workload of @p seed, placed in disjoint per-thread code
 *  and data regions. */
WorkloadSpec
smtSpec(std::uint64_t seed, unsigned slot)
{
    WorkloadSpec spec = fuzzSpec(seed);
    spec.dataBase = 0x01000000ULL * (slot + 1);
    spec.codeBase = 0x400000ULL + 0x100000ULL * slot;
    return spec;
}

class SmtGoldenTest : public ::testing::TestWithParam<SmtGolden>
{};

TEST_P(SmtGoldenTest, TwoThreadRunMatchesGoldenUnderEveryVariant)
{
    const SmtGolden &g = GetParam();
    const GeneratedWorkload wl0 = generateWorkload(smtSpec(11, 0));
    const GeneratedWorkload wl1 = generateWorkload(smtSpec(37, 1));

    for (const EngineVariant &v : kVariants) {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        for (const auto &[a, val] : wl0.memInit)
            mem.write(a, val);
        for (const auto &[a, val] : wl1.memInit)
            mem.write(a, val);
        SmtConfig smt;
        smt.rsPolicy = g.rs;
        SmtCore core(CoreConfig{}, smt, 0, hier, mem);
        core.setScheme(0, makeScheme(g.victim));
        const std::vector<const Program *> progs = {&wl0.prog, &wl1.prog};
        const SmtRunResult run = v.literal ? literalRun(core.engine(), progs)
                                           : core.run(progs);
        ASSERT_TRUE(run.finished) << v.name;
        for (unsigned t = 0; t < 2; ++t) {
            const ThreadStats &s = run.threads[t];
            const SmtThreadGolden &want = g.t[t];
            char got[160];
            std::snprintf(got, sizeof(got),
                          "{%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu}",
                          static_cast<unsigned long long>(s.cycles),
                          static_cast<unsigned long long>(s.issued),
                          static_cast<unsigned long long>(s.retired),
                          static_cast<unsigned long long>(
                              s.portContendedCycles),
                          static_cast<unsigned long long>(
                              s.mshrContendedCycles),
                          static_cast<unsigned long long>(s.rsBlockedCycles),
                          static_cast<unsigned long long>(
                              s.siblingPort0Cycles),
                          static_cast<unsigned long long>(
                              s.siblingMshrCycles));
            const std::string what = std::string(v.name) + " thread " +
                                     std::to_string(t) + " got " + got;
            EXPECT_EQ(s.cycles, want.cycles) << what;
            EXPECT_EQ(s.issued, want.issued) << what;
            EXPECT_EQ(s.retired, want.retired) << what;
            EXPECT_EQ(s.portContendedCycles, want.portContended) << what;
            EXPECT_EQ(s.mshrContendedCycles, want.mshrContended) << what;
            EXPECT_EQ(s.rsBlockedCycles, want.rsBlocked) << what;
            EXPECT_EQ(s.siblingPort0Cycles, want.siblingPort0) << what;
            EXPECT_EQ(s.siblingMshrCycles, want.siblingMshr) << what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    VictimSchemesAndRsPolicies, SmtGoldenTest,
    ::testing::ValuesIn(kSmtGoldens), [](const auto &info) {
        return "scheme" +
               std::to_string(static_cast<int>(info.param.victim)) + "_" +
               (info.param.rs == SharingPolicy::Shared ? "shared"
                                                       : "partitioned");
    });

// ---------------------------------------------------------------------
// Multi-core differential: the coordinated skip composes with the
// System's lockstep round-robin and the shared-level contention timers
// ---------------------------------------------------------------------

void
expectThreadStatsEqual(const ThreadStats &a, const ThreadStats &b,
                       const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.retired, b.retired) << what;
    EXPECT_EQ(a.issued, b.issued) << what;
    EXPECT_EQ(a.squashes, b.squashes) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.loadL1Hits, b.loadL1Hits) << what;
    EXPECT_EQ(a.finished, b.finished) << what;
    EXPECT_EQ(a.fetchGrants, b.fetchGrants) << what;
    EXPECT_EQ(a.portContendedCycles, b.portContendedCycles) << what;
    EXPECT_EQ(a.mshrContendedCycles, b.mshrContendedCycles) << what;
    EXPECT_EQ(a.rsBlockedCycles, b.rsBlockedCycles) << what;
    EXPECT_EQ(a.siblingPort0Cycles, b.siblingPort0Cycles) << what;
    EXPECT_EQ(a.siblingMshrCycles, b.siblingMshrCycles) << what;
}

WorkloadSpec
systemSpec(std::uint64_t seed, Addr data_base, Addr code_base)
{
    WorkloadSpec spec = fuzzSpec(seed);
    spec.instructions = 600;
    spec.footprintLines = 128;
    spec.dataBase = data_base;
    spec.codeBase = code_base;
    return spec;
}

// ---------------------------------------------------------------------
// Trial-reuse differential: a fixture reset with resetForRun() must be
// indistinguishable from a freshly constructed one. The sweep runner
// pools fixtures per worker thread (sim/experiment/fixture_pool.hh);
// these tests pin the reset contract against the same golden rows the
// fresh-construction tests use.
// ---------------------------------------------------------------------

TEST(ReusedFixtureGoldenTest, ReusedCoreMatchesGoldenUnderEveryVariant)
{
    for (const EngineVariant &v : kVariants) {
        // One long-lived substrate per variant, reused across all 18
        // golden points in sequence — every row must still match the
        // numbers a fresh Core produces.
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        Core core(CoreConfig{}, 0, hier, mem);
        for (const GoldenTrace &g : kGoldenTraces) {
            core.resetForRun();
            hier.reset();
            mem.clear();
            const GeneratedWorkload wl = generateWorkload(fuzzSpec(g.seed));
            for (const auto &[a, val] : wl.memInit)
                mem.write(a, val);
            core.setScheme(makeScheme(g.kind));
            const EngineRunResult run = runCore(core, wl.prog, v);
            ASSERT_TRUE(run.finished)
                << schemeName(g.kind) << " reused " << v.name;
            expectMatchesGolden(
                g, run.threads[0], run.cycles,
                fnv1aRegs([&](RegId r) { return core.archReg(r); }),
                (std::string("reused ") + v.name).c_str());
        }
    }
}

TEST(ReusedFixtureGoldenTest, SystemResetForRunErasesAllRunHistory)
{
    const GeneratedWorkload wl0 =
        generateWorkload(systemSpec(5, 0x01000000, 0x400000));
    const GeneratedWorkload wl1 =
        generateWorkload(systemSpec(8, 0x02000000, 0x500000));

    SystemConfig cfg;
    cfg.numCores = 2;

    auto load = [](System &sys, const GeneratedWorkload &wl) {
        for (const auto &[a, val] : wl.memInit)
            sys.memory().write(a, val);
    };

    // Cold reference: a fresh System running the target workloads.
    System fresh(cfg);
    load(fresh, wl0);
    load(fresh, wl1);
    const SystemRunResult want = fresh.run({{&wl0.prog}, {&wl1.prog}});
    ASSERT_TRUE(want.finished);

    // Dirty a second System with an unrelated workload pair (different
    // seeds, footprints and address bases), then reset and rerun the
    // target pair: predictor state, cache contents, arena/slab
    // occupancy and memory must all have been restored.
    const GeneratedWorkload other0 =
        generateWorkload(systemSpec(13, 0x03000000, 0x600000));
    const GeneratedWorkload other1 =
        generateWorkload(systemSpec(21, 0x04000000, 0x700000));
    System reused(cfg);
    load(reused, other0);
    load(reused, other1);
    ASSERT_TRUE(reused.run({{&other0.prog}, {&other1.prog}}).finished);

    reused.resetForRun();
    load(reused, wl0);
    load(reused, wl1);
    const SystemRunResult got = reused.run({{&wl0.prog}, {&wl1.prog}});
    ASSERT_TRUE(got.finished);
    EXPECT_EQ(got.cycles, want.cycles);
    for (unsigned c = 0; c < 2; ++c) {
        expectThreadStatsEqual(got.cores[c].threads[0],
                               want.cores[c].threads[0],
                               "reused core " + std::to_string(c));
        EXPECT_EQ(got.cores[c].cycles, want.cores[c].cycles);
    }
}

TEST(SystemGoldenTest, RunMatchesLiteralLoopWithContentionModel)
{
    const GeneratedWorkload wl0 =
        generateWorkload(systemSpec(5, 0x01000000, 0x400000));
    const GeneratedWorkload wl1 =
        generateWorkload(systemSpec(8, 0x02000000, 0x500000));

    auto run_once = [&](bool literal, unsigned llc_port_busy,
                        unsigned llc_mshrs) {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.hier.llcPortBusy = llc_port_busy;
        cfg.hier.llcMshrs = llc_mshrs;
        System sys(cfg);
        for (const auto &[a, val] : wl0.memInit)
            sys.memory().write(a, val);
        for (const auto &[a, val] : wl1.memInit)
            sys.memory().write(a, val);
        const std::vector<std::vector<const Program *>> progs = {
            {&wl0.prog}, {&wl1.prog}};
        return literal ? literalRun(sys, progs) : sys.run(progs);
    };

    // Uncontended and contended shared level: the skip must respect
    // the slice-port and shared-MSHR busy timers in both regimes.
    for (const auto &[port_busy, mshrs] :
         {std::pair<unsigned, unsigned>{0u, 0u}, {2u, 4u}}) {
        const SystemRunResult base = run_once(true, port_busy, mshrs);
        const SystemRunResult got = run_once(false, port_busy, mshrs);
        const std::string what =
            "llcPortBusy=" + std::to_string(port_busy);
        ASSERT_TRUE(base.finished && got.finished) << what;
        EXPECT_EQ(got.cycles, base.cycles) << what;
        for (unsigned c = 0; c < 2; ++c) {
            expectThreadStatsEqual(got.cores[c].threads[0],
                                   base.cores[c].threads[0],
                                   what + " core " + std::to_string(c));
            EXPECT_EQ(got.cores[c].cycles, base.cores[c].cycles) << what;
        }
    }
}

// ---------------------------------------------------------------------
// Channel verdicts, pinned to constants from the literal tick loop:
// run() skips only provably dead cycles — in SMT trials and around an
// attacker's timed reference access too — so no verdict may move
// ---------------------------------------------------------------------

TEST(ChannelGoldenTest, DCacheChannelVerdictUnchangedByFastForward)
{
    ChannelConfig cfg;
    cfg.scheme = SchemeKind::DomNonTso;
    cfg.trialsPerBit = 1;
    cfg.noise = NoiseConfig::none();
    const ChannelResult res = runDCacheChannel(randomBits(12, 7), cfg);
    EXPECT_EQ(res.bitsSent, 12u);
    EXPECT_EQ(res.bitErrors, 0u);
    EXPECT_EQ(res.discardedTrials, 0u);
    EXPECT_EQ(res.totalCycles, 180004020u);
}

TEST(ChannelGoldenTest, ICacheChannelVerdictUnchangedByFastForward)
{
    ChannelConfig cfg;
    cfg.scheme = SchemeKind::InvisiSpecSpectre;
    cfg.trialsPerBit = 1;
    cfg.noise = NoiseConfig::none();
    const ChannelResult res = runICacheChannel(randomBits(12, 9), cfg);
    EXPECT_EQ(res.bitsSent, 12u);
    EXPECT_EQ(res.bitErrors, 0u);
    EXPECT_EQ(res.discardedTrials, 0u);
    EXPECT_EQ(res.totalCycles, 36003240u);
}

TEST(ChannelGoldenTest, SmtChannelVerdictUnchangedByFastForward)
{
    SmtChannelConfig cfg;
    cfg.scheme = SchemeKind::InvisiSpecSpectre;
    cfg.attack.kind = SmtChannelKind::Port;
    cfg.trialsPerBit = 1;
    const SmtChannelResult res =
        runSmtContentionChannel(randomBits(8, 123), cfg);
    EXPECT_TRUE(res.calibration.usable);
    EXPECT_EQ(res.channel.bitsSent, 8u);
    EXPECT_EQ(res.channel.bitErrors, 0u);
    EXPECT_EQ(res.channel.discardedTrials, 0u);
    EXPECT_EQ(res.channel.totalCycles, 21890u);
}

} // namespace
} // namespace specint
