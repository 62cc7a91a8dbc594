/**
 * @file
 * Randomized differential fuzz for the stall fast-forward path.
 *
 * Each iteration derives an independent sub-seed (SplitMix64 over the
 * master seed), generates a random workload mix, and runs it twice —
 * once through the literal per-cycle tick loop (tests/literal_loop.hh)
 * and once through run(), which skips dead cycles — rotating through
 * the topologies the skip must compose with: a single Core, a
 * two-thread SmtCore, and 2-/4-core Systems with and without the
 * shared-LLC contention knobs (slice port busy time, finite shared
 * MSHRs). Every cycle count, per-thread stat and final architectural
 * register must match exactly; a mismatch prints the failing
 * iteration's seed so it can be replayed as a fixed-point regression.
 *
 * tests/test_golden_traces.cc pins the fixed-seed scenario points;
 * this file walks the configuration space around them.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/core.hh"
#include "literal_loop.hh"
#include "memory/hierarchy.hh"
#include "sim/rng.hh"
#include "smt/smt_core.hh"
#include "spec/scheme.hh"
#include "system/system.hh"
#include "workload/generator.hh"

namespace specint
{
namespace
{

#ifdef NDEBUG
constexpr unsigned kIterations = 500;
#else
constexpr unsigned kIterations = 50;
#endif

constexpr std::uint64_t kMasterSeed = 0x5eeded0ff0f0f0f0ULL;

/** SplitMix64 step: statistically independent per-iteration seeds. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr SchemeKind kSchemes[] = {
    SchemeKind::Unsafe,         SchemeKind::DomNonTso,
    SchemeKind::InvisiSpecSpectre, SchemeKind::SafeSpecWfb,
    SchemeKind::MuonTrap,       SchemeKind::AdvancedDefense,
};

WorkloadSpec
randomSpec(Rng &rng, unsigned slot)
{
    WorkloadSpec spec;
    spec.name = "ff-fuzz";
    spec.instructions = static_cast<unsigned>(rng.range(150, 450));
    spec.loadFrac = 0.15 + 0.20 * rng.uniform();
    spec.storeFrac = 0.10 * rng.uniform();
    spec.branchFrac = 0.05 + 0.12 * rng.uniform();
    spec.mulFrac = 0.06 * rng.uniform();
    spec.sqrtFrac = 0.05 * rng.uniform();
    spec.chaseFrac = 0.30 * rng.uniform();
    spec.footprintLines = static_cast<unsigned>(rng.range(32, 512));
    spec.branchTakenProb = rng.uniform();
    // Disjoint per-slot regions so multi-thread/multi-core images
    // never alias.
    spec.dataBase = 0x01000000ULL * (slot + 1);
    spec.codeBase = 0x400000ULL + 0x100000ULL * slot;
    spec.seed = rng.next();
    return spec;
}

/** Everything one run reports: compared field-by-field. */
struct RunDigest
{
    Tick cycles = 0;
    bool finished = false;
    std::vector<ThreadStats> threads;
    std::vector<std::uint64_t> regHashes;
};

std::uint64_t
hashRegs(const PipelineEngine &eng, ThreadId tid)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned r = 0; r < kNumRegs; ++r) {
        const std::uint64_t v = eng.archReg(tid, r);
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

void
expectDigestsEqual(const RunDigest &ff, const RunDigest &base,
                   const std::string &what)
{
    EXPECT_EQ(ff.cycles, base.cycles) << what;
    EXPECT_EQ(ff.finished, base.finished) << what;
    ASSERT_EQ(ff.threads.size(), base.threads.size()) << what;
    for (std::size_t i = 0; i < base.threads.size(); ++i) {
        const ThreadStats &a = ff.threads[i];
        const ThreadStats &b = base.threads[i];
        const std::string at = what + " thread " + std::to_string(i);
        EXPECT_EQ(a.cycles, b.cycles) << at;
        EXPECT_EQ(a.retired, b.retired) << at;
        EXPECT_EQ(a.issued, b.issued) << at;
        EXPECT_EQ(a.squashes, b.squashes) << at;
        EXPECT_EQ(a.branches, b.branches) << at;
        EXPECT_EQ(a.mispredicts, b.mispredicts) << at;
        EXPECT_EQ(a.loads, b.loads) << at;
        EXPECT_EQ(a.loadL1Hits, b.loadL1Hits) << at;
        EXPECT_EQ(a.finished, b.finished) << at;
        EXPECT_EQ(a.fetchGrants, b.fetchGrants) << at;
        EXPECT_EQ(a.portContendedCycles, b.portContendedCycles) << at;
        EXPECT_EQ(a.mshrContendedCycles, b.mshrContendedCycles) << at;
        EXPECT_EQ(a.rsBlockedCycles, b.rsBlockedCycles) << at;
        EXPECT_EQ(ff.regHashes[i], base.regHashes[i])
            << at << " architectural state diverged";
    }
}

/** One fuzz point: the randomized inputs for a single comparison. */
struct FuzzPoint
{
    std::uint64_t seed = 0;
    SchemeKind scheme = SchemeKind::Unsafe;
    unsigned topology = 0;   ///< 0=Core, 1=SmtCore 2T, 2/3=System 2/4c
    bool contended = false;  ///< shared-LLC port/MSHR limits on
    std::vector<GeneratedWorkload> workloads;
};

HierarchyConfig
fuzzHierConfig(const FuzzPoint &pt)
{
    HierarchyConfig hier = HierarchyConfig::small();
    if (pt.contended) {
        hier.llcPortBusy = 2;
        hier.llcMshrs = 4;
    }
    return hier;
}

/** run() or, with @p literal, the reference tick loop on @p eng. */
EngineRunResult
runEngine(PipelineEngine &eng, const std::vector<const Program *> &progs,
          bool literal)
{
    return literal ? literalRun(eng, progs) : eng.run(progs);
}

RunDigest
runCore(const FuzzPoint &pt, bool literal)
{
    Hierarchy hier(fuzzHierConfig(pt));
    MainMemory mem;
    for (const auto &[a, v] : pt.workloads[0].memInit)
        mem.write(a, v);
    Core core(CoreConfig{}, 0, hier, mem);
    core.setScheme(makeScheme(pt.scheme));
    const EngineRunResult run =
        runEngine(core.engine(), {&pt.workloads[0].prog}, literal);

    RunDigest d;
    d.cycles = run.cycles;
    d.finished = run.finished;
    d.threads = run.threads;
    d.regHashes.push_back(hashRegs(core.engine(), 0));
    return d;
}

RunDigest
runSmt(const FuzzPoint &pt, bool literal)
{
    Hierarchy hier(fuzzHierConfig(pt));
    MainMemory mem;
    for (const auto &wl : pt.workloads)
        for (const auto &[a, v] : wl.memInit)
            mem.write(a, v);
    SmtConfig smt;
    smt.numThreads = 2;
    SmtCore core(CoreConfig{}, smt, 0, hier, mem);
    for (unsigned t = 0; t < 2; ++t)
        core.setScheme(t, makeScheme(pt.scheme));
    const SmtRunResult run = runEngine(
        core.engine(), {&pt.workloads[0].prog, &pt.workloads[1].prog},
        literal);

    RunDigest d;
    d.cycles = run.cycles;
    d.finished = run.finished;
    d.threads = run.threads;
    for (unsigned t = 0; t < 2; ++t)
        d.regHashes.push_back(hashRegs(core.engine(), t));
    return d;
}

RunDigest
runSystem(const FuzzPoint &pt, unsigned num_cores, bool literal)
{
    SystemConfig cfg;
    cfg.numCores = num_cores;
    cfg.hier = fuzzHierConfig(pt);
    System sys(cfg);
    std::vector<std::vector<const Program *>> progs;
    for (unsigned c = 0; c < num_cores; ++c) {
        for (const auto &[a, v] : pt.workloads[c].memInit)
            sys.memory().write(a, v);
        progs.push_back({&pt.workloads[c].prog});
    }
    const SystemRunResult run =
        literal ? literalRun(sys, progs) : sys.run(progs);

    RunDigest d;
    d.cycles = run.cycles;
    d.finished = run.finished;
    for (unsigned c = 0; c < num_cores; ++c) {
        d.threads.push_back(run.cores[c].threads[0]);
        d.regHashes.push_back(hashRegs(sys.core(c), 0));
    }
    return d;
}

RunDigest
runPoint(const FuzzPoint &pt, bool literal)
{
    switch (pt.topology) {
      case 0: return runCore(pt, literal);
      case 1: return runSmt(pt, literal);
      case 2: return runSystem(pt, 2, literal);
      default: return runSystem(pt, 4, literal);
    }
}

TEST(FastForwardFuzzTest, RandomProgramsMatchBaselineTickLoop)
{
    std::uint64_t state = kMasterSeed;
    for (unsigned it = 0; it < kIterations; ++it) {
        FuzzPoint pt;
        pt.seed = splitMix64(state);
        Rng rng(pt.seed);
        pt.scheme =
            kSchemes[rng.below(sizeof(kSchemes) / sizeof(kSchemes[0]))];
        pt.topology = it % 4;
        pt.contended = (it % 8) >= 4;
        const unsigned slots =
            pt.topology <= 1 ? 2u : (pt.topology == 2 ? 2u : 4u);
        for (unsigned s = 0; s < slots; ++s)
            pt.workloads.push_back(generateWorkload(randomSpec(rng, s)));

        const std::string what =
            "iteration " + std::to_string(it) + " seed 0x" +
            [](std::uint64_t v) {
                char buf[17];
                std::snprintf(buf, sizeof(buf), "%016llx",
                              static_cast<unsigned long long>(v));
                return std::string(buf);
            }(pt.seed) +
            " scheme " + schemeName(pt.scheme) + " topology " +
            std::to_string(pt.topology) +
            (pt.contended ? " contended" : "");
        SCOPED_TRACE(what);

        const RunDigest base = runPoint(pt, true);
        const RunDigest ff = runPoint(pt, false);
        expectDigestsEqual(ff, base, what);
        if (::testing::Test::HasFailure()) {
            // One replayable counterexample is worth more than 500
            // cascading reports.
            FAIL() << "first divergence at " << what;
        }
    }
}

} // namespace
} // namespace specint
