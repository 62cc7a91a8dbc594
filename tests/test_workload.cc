/**
 * @file
 * Workload generator and defense-overhead (Fig. 12) tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core.hh"
#include "memory/hierarchy.hh"
#include "sim/rng.hh"
#include "workload/suite.hh"

namespace specint
{
namespace
{

TEST(Generator, DeterministicForSameSpec)
{
    WorkloadSpec spec;
    spec.instructions = 500;
    const auto a = generateWorkload(spec);
    const auto b = generateWorkload(spec);
    ASSERT_EQ(a.prog.size(), b.prog.size());
    for (unsigned i = 0; i < a.prog.size(); ++i) {
        EXPECT_EQ(a.prog.at(i).op, b.prog.at(i).op);
        EXPECT_EQ(a.prog.at(i).imm, b.prog.at(i).imm);
    }
}

TEST(Generator, RespectsInstructionMixRoughly)
{
    WorkloadSpec spec;
    spec.instructions = 4000;
    spec.loadFrac = 0.30;
    spec.branchFrac = 0.10;
    const auto wl = generateWorkload(spec);
    unsigned loads = 0, branches = 0;
    for (const auto &si : wl.prog.code()) {
        loads += si.isLoad() ? 1 : 0;
        branches += si.isBranch() ? 1 : 0;
    }
    const double n = static_cast<double>(wl.prog.size());
    // Branch predicate loads inflate the load count slightly.
    EXPECT_NEAR(loads / n, 0.34, 0.08);
    EXPECT_GT(branches, 0u);
}

TEST(Generator, ProgramsRunToCompletion)
{
    for (const WorkloadSpec &spec : spec2017Archetypes(1500)) {
        const auto wl = generateWorkload(spec);
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        for (const auto &[a, v] : wl.memInit)
            mem.write(a, v);
        Core core(CoreConfig{}, 0, hier, mem);
        const CoreStats s = core.run(wl.prog);
        EXPECT_TRUE(s.finished) << spec.name;
        EXPECT_GT(s.retired, spec.instructions / 2) << spec.name;
    }
}

/** The memory image of @p spec as an explicit list: the ring words,
 *  then one predicate word per footprint line drawn as the first
 *  values of the spec's stream. */
std::vector<std::pair<Addr, std::uint64_t>>
imageAsList(const WorkloadSpec &spec)
{
    const unsigned lines = std::max(1u, spec.footprintLines);
    const Addr data = spec.dataBase ? spec.dataBase : 0x08000000;
    const Addr ring = data + (0x0c000000 - 0x08000000);
    std::vector<std::pair<Addr, std::uint64_t>> list;
    for (unsigned i = 0; i < lines; ++i)
        list.emplace_back(ring + 64ULL * i,
                          ring + 64ULL * ((i + 17) % lines));
    Rng rng(spec.seed);
    for (unsigned i = 0; i < lines; ++i)
        list.emplace_back(data + 64ULL * i, rng.below(100));
    return list;
}

TEST(Generator, MemImageMatchesTheListItReplaced)
{
    std::vector<WorkloadSpec> specs = spec2017Archetypes(200);
    WorkloadSpec placed;
    placed.name = "placed";
    placed.instructions = 200;
    placed.dataBase = 0x20000000;
    placed.codeBase = 0x00500000;
    specs.push_back(placed);
    // Rings shorter than the stride: every line wraps.
    for (unsigned lines : {1u, 5u}) {
        WorkloadSpec small;
        small.name = "lines" + std::to_string(lines);
        small.instructions = 200;
        small.footprintLines = lines;
        specs.push_back(small);
    }

    for (const WorkloadSpec &spec : specs) {
        const auto want = imageAsList(spec);
        const auto wl = generateWorkload(spec);
        std::size_t k = 0;
        for (const auto &[a, v] : wl.memInit) {
            ASSERT_LT(k, want.size()) << spec.name;
            ASSERT_EQ(a, want[k].first) << spec.name << " pair " << k;
            ASSERT_EQ(v, want[k].second) << spec.name << " pair " << k;
            ++k;
        }
        EXPECT_EQ(k, want.size()) << spec.name;
    }
}

TEST(Generator, BranchyWorkloadsMispredict)
{
    WorkloadSpec spec;
    spec.name = "branchy";
    spec.instructions = 3000;
    spec.branchFrac = 0.2;
    spec.branchTakenProb = 0.4; // hard to predict
    const auto wl = generateWorkload(spec);
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    for (const auto &[a, v] : wl.memInit)
        mem.write(a, v);
    Core core(CoreConfig{}, 0, hier, mem);
    const CoreStats s = core.run(wl.prog);
    EXPECT_GT(s.mispredicts, 10u);
}

TEST(Suite, ArchetypesCoverTheAxes)
{
    const auto suite = spec2017Archetypes();
    EXPECT_GE(suite.size(), 10u);
    bool chasey = false, branchy = false, fp = false;
    for (const auto &s : suite) {
        chasey |= s.chaseFrac > 0.5;
        branchy |= s.branchFrac > 0.15;
        fp |= s.sqrtFrac > 0.05;
    }
    EXPECT_TRUE(chasey);
    EXPECT_TRUE(branchy);
    EXPECT_TRUE(fp);
}

TEST(DefenseOverhead, FuturisticCostsMoreThanSpectre)
{
    // Fig. 12 shape: Futuristic >> Spectre >> 1.0.
    const std::vector<SchemeKind> schemes = {
        SchemeKind::Unsafe, SchemeKind::FenceSpectre,
        SchemeKind::FenceFuturistic};
    const auto report =
        runDefenseOverhead(schemes, spec2017Archetypes(1200));
    ASSERT_EQ(report.geomean.size(), 3u);
    EXPECT_NEAR(report.geomean[0], 1.0, 1e-9);
    EXPECT_GT(report.geomean[1], 1.05);
    EXPECT_GT(report.geomean[2], report.geomean[1] * 1.3);
    for (const auto &row : report.rows) {
        // Tiny speedups are possible (no wrong-path cache pollution
        // when transient loads never issue), hence the 0.95 floor.
        EXPECT_GE(row.slowdown[1], 0.95) << row.workload;
        EXPECT_GE(row.slowdown[2], row.slowdown[1] * 0.95)
            << row.workload;
    }
}

} // namespace
} // namespace specint
