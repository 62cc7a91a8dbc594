/**
 * @file
 * SMT / unified-engine tests: two-thread architectural transparency,
 * per-thread squash isolation, partitioned-vs-shared resource
 * accounting, fetch arbitration fairness, and secret recovery through
 * the sibling-thread port/MSHR contention channel. (The golden-trace
 * regression pinning the engine cycle-for-cycle against the
 * pre-unification pipeline lives in tests/test_golden_traces.cc,
 * where it also checks run() against the literal tick loop.)
 */

#include <array>

#include <gtest/gtest.h>

#include "attack/smt_probe.hh"
#include "cpu/core.hh"
#include "cpu/pipeline/engine.hh"
#include "memory/hierarchy.hh"
#include "smt/fetch_arbiter.hh"
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

/** ALU/branch/FP-only workload: touches no memory, so it can share a
 *  MainMemory with a memory-heavy sibling without interacting. */
WorkloadSpec
computeOnlySpec(std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.name = "smt-compute";
    spec.instructions = 800;
    spec.loadFrac = 0.0;
    spec.storeFrac = 0.0;
    spec.branchFrac = 0.15;
    spec.mulFrac = 0.10;
    spec.sqrtFrac = 0.05;
    spec.chaseFrac = 0.0;
    spec.branchTakenProb = 0.35;
    spec.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------
// Two-thread architectural transparency
// ---------------------------------------------------------------------

TEST(SmtCoreTest, TwoThreadsComputeTheSameResultsAsAlone)
{
    // Both workloads must be store-free: the SMT threads share one
    // MainMemory, so a store on one thread would legitimately change
    // what the other reads (the generator's data-dependent branches
    // load from a common region). Loads may overlap freely.
    WorkloadSpec spec_mem = fuzzSpec(23);
    spec_mem.storeFrac = 0.0;
    const GeneratedWorkload wl_mem = generateWorkload(spec_mem);
    const GeneratedWorkload wl_cpu = generateWorkload(computeOnlySpec(59));

    // One memory image, applied identically to every run (the two
    // memInit sets overlap; later writes win, so order matters).
    auto init_mem = [&](MainMemory &mem) {
        for (const auto &[a, v] : wl_mem.memInit)
            mem.write(a, v);
        for (const auto &[a, v] : wl_cpu.memInit)
            mem.write(a, v);
    };

    // Solo reference runs.
    std::array<std::uint64_t, kNumRegs> solo_mem{}, solo_cpu{};
    {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        init_mem(mem);
        Core core(CoreConfig{}, 0, hier, mem);
        ASSERT_TRUE(core.run(wl_mem.prog).finished);
        for (unsigned r = 0; r < kNumRegs; ++r)
            solo_mem[r] = core.archReg(static_cast<RegId>(r));
    }
    {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        init_mem(mem);
        Core core(CoreConfig{}, 0, hier, mem);
        ASSERT_TRUE(core.run(wl_cpu.prog).finished);
        for (unsigned r = 0; r < kNumRegs; ++r)
            solo_cpu[r] = core.archReg(static_cast<RegId>(r));
    }

    // SMT runs under every sharing-policy combination: contention must
    // never change architectural results.
    for (SharingPolicy pol :
         {SharingPolicy::Shared, SharingPolicy::Partitioned}) {
        for (FetchPolicy fp :
             {FetchPolicy::RoundRobin, FetchPolicy::ICount}) {
            SmtConfig smt;
            smt.robPolicy = smt.rsPolicy = smt.lqPolicy = smt.sqPolicy =
                pol;
            smt.fetchPolicy = fp;
            Hierarchy hier(HierarchyConfig::small());
            MainMemory mem;
            init_mem(mem);
            PipelineEngine core(CoreConfig{}, smt, 0, hier, mem);
            const EngineRunResult run =
                core.run({&wl_mem.prog, &wl_cpu.prog});
            ASSERT_TRUE(run.finished) << smtConfigName(smt);
            for (unsigned r = 0; r < kNumRegs; ++r) {
                ASSERT_EQ(core.archReg(0, static_cast<RegId>(r)),
                          solo_mem[r])
                    << smtConfigName(smt) << " thread 0 r" << r;
                ASSERT_EQ(core.archReg(1, static_cast<RegId>(r)),
                          solo_cpu[r])
                    << smtConfigName(smt) << " thread 1 r" << r;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-thread squash isolation
// ---------------------------------------------------------------------

TEST(SmtCoreTest, SiblingMispredictDoesNotFlushOtherThread)
{
    // Thread A: a data-dependent branch the (untrained, weakly
    // not-taken) predictor mispredicts, with wrong-path ALUs.
    Program a;
    constexpr Addr kVal = 0x06000000;
    a.load(2, kNoReg, kVal, 1, "predicate");
    a.setReg(1, 5);
    const unsigned br = a.branch(BranchCond::LT, 1, 2, 0, "branch");
    a.alu(3, 3, kNoReg, 1); // wrong path
    a.alu(3, 3, kNoReg, 1);
    const unsigned target = a.alu(4, 4, kNoReg, 7, "target");
    a.setBranchTarget(br, target);
    a.halt();

    // Thread B: a straight dependent ALU chain.
    Program b;
    constexpr unsigned kChain = 60;
    for (unsigned i = 0; i < kChain; ++i)
        b.alu(10, 10, kNoReg, 1);
    b.halt();

    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    mem.write(kVal, 10); // 5 < 10: branch actually taken
    PipelineEngine core(CoreConfig{}, SmtConfig{}, 0, hier, mem);
    const EngineRunResult run = core.run({&a, &b});

    ASSERT_TRUE(run.finished);
    EXPECT_GE(run.threads[0].mispredicts, 1u);
    EXPECT_GE(run.threads[0].squashes, 1u);
    // The squash stayed on thread A...
    EXPECT_EQ(run.threads[1].squashes, 0u);
    EXPECT_EQ(run.threads[1].mispredicts, 0u);
    // ...B's architectural state is intact...
    EXPECT_EQ(core.archReg(1, 10), kChain);
    EXPECT_EQ(run.threads[1].retired, kChain + 1);
    // ...and A's wrong-path work never became architectural.
    EXPECT_EQ(core.archReg(0, 3), 0u);
    EXPECT_EQ(core.archReg(0, 4), 7u);
}

TEST(SmtUnitTest, PortSquashIsThreadLocal)
{
    PortSet ports;
    // Non-pipelined units on port 0 (thread 0) and port 4... port 0
    // only has one unit; use issue() on two different ports.
    ports.issue(0, Op::FpSqrt, 10, 40, /*holder=*/7, true, /*tid=*/0);
    ports.issue(1, Op::IntMul, 10, 11, /*holder=*/9, true, /*tid=*/1);
    // IntMul is pipelined: no holder. Re-do port 1 with a sqrt-like
    // non-pipelined op cannot use port 1, so emulate with FpDiv on
    // port 0 of a second PortSet instead: simpler — verify squash of
    // the *other* thread leaves the unit busy.
    EXPECT_TRUE(ports.busy(0, 20));
    ports.squashThread(1, 0); // thread 1 squash: must not free tid-0 unit
    EXPECT_TRUE(ports.busy(0, 20));
    EXPECT_EQ(ports.holder(0), 7u);
    ports.squashThread(0, 0); // thread 0 squash frees it
    EXPECT_FALSE(ports.busy(0, 20));
}

TEST(SmtUnitTest, MshrSquashAndAccountingAreThreadLocal)
{
    MshrFile mshr(4);
    mshr.allocate(0x1000, 0, 100, 5, true, /*tid=*/0);
    mshr.allocate(0x2000, 0, 100, 6, true, /*tid=*/0);
    mshr.allocate(0x3000, 0, 100, 5, true, /*tid=*/1);
    EXPECT_EQ(mshr.inUse(0), 3u);
    // Over one cycle, heldCycles() is inUse() split by thread.
    std::array<Tick, kMaxSmtThreads> held{};
    EXPECT_EQ(mshr.heldCycles(0, 1, held), 3u);
    EXPECT_EQ(held[0], 2u);
    EXPECT_EQ(held[1], 1u);

    // Thread 0 squash at bound 4 drops both tid-0 entries, not tid-1's.
    mshr.squashThread(0, 4);
    EXPECT_EQ(mshr.inUse(0), 1u);
    held = {};
    EXPECT_EQ(mshr.heldCycles(0, 1, held), 1u);
    EXPECT_EQ(held[0], 0u);
    EXPECT_EQ(held[1], 1u);

    // Same-thread-only speculative preemption.
    EXPECT_FALSE(mshr.preemptYoungestSpeculative(0, /*tid=*/0));
    EXPECT_TRUE(mshr.preemptYoungestSpeculative(0, /*tid=*/1));
}

// ---------------------------------------------------------------------
// Partitioned vs shared capacity accounting
// ---------------------------------------------------------------------

TEST(SmtUnitTest, ReservationStationPartitionedVsShared)
{
    auto make_inst = [](ThreadId tid) {
        OwnedDynInst d;
        d.inst.tid = tid;
        return d;
    };

    ReservationStation part(8, 2, SharingPolicy::Partitioned);
    std::vector<OwnedDynInst> insts;
    insts.reserve(16);
    for (unsigned i = 0; i < 4; ++i) {
        insts.push_back(make_inst(0));
        part.allocate(insts.back().inst);
    }
    EXPECT_TRUE(part.full(0));  // thread 0 exhausted its 8/2 share
    EXPECT_FALSE(part.full(1)); // thread 1's share untouched
    EXPECT_EQ(part.occupancy(), 4u);
    EXPECT_EQ(part.occupancy() - part.occupancy(1), 4u);

    ReservationStation shared(8, 2, SharingPolicy::Shared);
    std::vector<OwnedDynInst> insts2;
    insts2.reserve(16);
    for (unsigned i = 0; i < 8; ++i) {
        insts2.push_back(make_inst(0));
        shared.allocate(insts2.back().inst);
    }
    EXPECT_TRUE(shared.full(0));
    EXPECT_TRUE(shared.full(1)); // one thread can starve the sibling
}

TEST(SmtUnitTest, LsqPartitionedVsShared)
{
    static const StaticInst load_si = [] {
        StaticInst s;
        s.op = Op::Load;
        return s;
    }();
    auto load_inst = [](ThreadId tid) {
        OwnedDynInst d;
        d.inst.tid = tid;
        d.inst.setStaticInst(&load_si);
        return d;
    };

    Lsq part(4, 4, 2, SharingPolicy::Partitioned, SharingPolicy::Shared);
    for (unsigned i = 0; i < 2; ++i) {
        const OwnedDynInst d = load_inst(0);
        ASSERT_TRUE(part.allocate(d.inst));
    }
    EXPECT_TRUE(part.lqFull(0));
    EXPECT_FALSE(part.lqFull(1));

    Lsq shared(4, 4, 2, SharingPolicy::Shared, SharingPolicy::Shared);
    for (unsigned i = 0; i < 4; ++i) {
        const OwnedDynInst d = load_inst(0);
        ASSERT_TRUE(shared.allocate(d.inst));
    }
    EXPECT_TRUE(shared.lqFull(1));
    const OwnedDynInst d = load_inst(1);
    EXPECT_FALSE(shared.allocate(d.inst));
}

TEST(SmtCoreTest, PartitionedRsProtectsSiblingFromCongestion)
{
    // Thread A: a cold load feeding a long dependent ALU chain — the
    // chain parks in the RS until the miss returns (the G^I_RS
    // congestion pattern). Thread B: a long stream of independent
    // work, still dispatching while A's chain saturates the RS.
    // Distinct code bases plus explicit I-line warming keep cold
    // instruction fetch from masking the RS window.
    Program a(0x400000);
    a.load(2, kNoReg, 0x07000000, 1, "cold");
    for (unsigned i = 0; i < 150; ++i)
        a.alu(3, 2, 3, 1);
    a.halt();

    Program b(0x500000);
    for (unsigned i = 0; i < 300; ++i)
        b.alu(static_cast<RegId>(10 + (i % 16)), 1, kNoReg, 1);
    b.halt();

    auto run_b_cycles = [&](SharingPolicy rs_policy, FetchPolicy fp) {
        SmtConfig smt;
        smt.rsPolicy = rs_policy;
        smt.fetchPolicy = fp;
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        PipelineEngine core(CoreConfig{}, smt, 0, hier, mem);
        for (const Program *p : {&a, &b})
            for (unsigned pc = 0; pc < p->size(); ++pc)
                hier.access(0, p->instLine(pc), AccessType::Instr, 0);
        const EngineRunResult run = core.run({&a, &b});
        EXPECT_TRUE(run.finished);
        return run.threads[1].cycles;
    };

    // RoundRobin fetch keeps A supplying the RS with parked work.
    const Tick part =
        run_b_cycles(SharingPolicy::Partitioned, FetchPolicy::RoundRobin);
    const Tick shared =
        run_b_cycles(SharingPolicy::Shared, FetchPolicy::RoundRobin);
    // Under competitive sharing A's parked chain back-pressures B's
    // dispatch until A's miss returns; a static partition isolates B.
    EXPECT_LT(part, shared);

    // ICOUNT fetch shields B even with a shared RS: the clogged
    // thread's inflated in-flight count starves it of fetch slots
    // before it can saturate the RS.
    const Tick icount =
        run_b_cycles(SharingPolicy::Shared, FetchPolicy::ICount);
    EXPECT_LT(icount, shared);
}

// ---------------------------------------------------------------------
// Fetch arbitration
// ---------------------------------------------------------------------

TEST(SmtUnitTest, FetchArbiterRoundRobinAlternates)
{
    FetchArbiter arb(FetchPolicy::RoundRobin);
    std::vector<FetchArbiter::Candidate> c(2);
    c[0] = {true, 0};
    c[1] = {true, 0};
    EXPECT_EQ(arb.pick(c), 0);
    EXPECT_EQ(arb.pick(c), 1);
    EXPECT_EQ(arb.pick(c), 0);
    c[0].fetchable = false;
    EXPECT_EQ(arb.pick(c), 1); // skips the stalled thread
    c[0].fetchable = true;
    c[1].fetchable = false;
    EXPECT_EQ(arb.pick(c), 0);
    c[0].fetchable = false;
    EXPECT_EQ(arb.pick(c), -1);
}

TEST(SmtUnitTest, FetchArbiterICountPrefersEmptierThread)
{
    FetchArbiter arb(FetchPolicy::ICount);
    std::vector<FetchArbiter::Candidate> c(2);
    c[0] = {true, 30};
    c[1] = {true, 4};
    EXPECT_EQ(arb.pick(c), 1);
    c[1].icount = 30;
    // Tie: rotating tie-break shares the stage.
    const int first = arb.pick(c);
    const int second = arb.pick(c);
    EXPECT_NE(first, second);
}

TEST(SmtCoreTest, FetchArbitrationIsFairForSymmetricThreads)
{
    const GeneratedWorkload wl0 = generateWorkload(computeOnlySpec(7));
    const GeneratedWorkload wl1 = generateWorkload(computeOnlySpec(7));

    for (FetchPolicy fp :
         {FetchPolicy::RoundRobin, FetchPolicy::ICount}) {
        SmtConfig smt;
        smt.fetchPolicy = fp;
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        PipelineEngine core(CoreConfig{}, smt, 0, hier, mem);
        const EngineRunResult run = core.run({&wl0.prog, &wl1.prog});
        ASSERT_TRUE(run.finished);
        const auto g0 = run.threads[0].fetchGrants;
        const auto g1 = run.threads[1].fetchGrants;
        ASSERT_GT(g0 + g1, 0u);
        const double imbalance =
            static_cast<double>(g0 > g1 ? g0 - g1 : g1 - g0) /
            static_cast<double>(g0 + g1);
        EXPECT_LT(imbalance, 0.10) << fetchPolicyName(fp);
    }
}

// ---------------------------------------------------------------------
// The sibling-thread contention channel
// ---------------------------------------------------------------------

class SmtChannelRecovers
    : public ::testing::TestWithParam<std::tuple<SchemeKind, SmtChannelKind>>
{};

TEST_P(SmtChannelRecovers, SecretComesThroughContention)
{
    const auto [scheme, kind] = GetParam();
    const std::vector<std::uint8_t> bits = randomBits(16, 123);

    SmtChannelConfig cfg;
    cfg.scheme = scheme;
    cfg.attack.kind = kind;
    cfg.trialsPerBit = 1;

    const ProbeChannelResult res = runSmtContentionChannel(bits, cfg);
    EXPECT_TRUE(res.calibration.usable)
        << schemeName(scheme) << " closed the "
        << smtChannelKindName(kind) << " channel";
    EXPECT_EQ(res.channel.bitErrors, 0u)
        << schemeName(scheme) << " over " << smtChannelKindName(kind);
    EXPECT_EQ(res.channel.bitsSent, bits.size());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndKinds, SmtChannelRecovers,
    ::testing::Values(
        std::make_tuple(SchemeKind::Unsafe, SmtChannelKind::Port),
        std::make_tuple(SchemeKind::InvisiSpecSpectre,
                        SmtChannelKind::Port),
        std::make_tuple(SchemeKind::DomNonTso, SmtChannelKind::Port),
        std::make_tuple(SchemeKind::Unsafe, SmtChannelKind::Mshr),
        std::make_tuple(SchemeKind::InvisiSpecSpectre,
                        SmtChannelKind::Mshr)),
    [](const auto &info) {
        return "s" +
               std::to_string(
                   static_cast<int>(std::get<0>(info.param))) +
               (std::get<1>(info.param) == SmtChannelKind::Port
                    ? "_port"
                    : "_mshr");
    });

TEST(SmtChannelTest, ChannelSurvivesPartitionedWindowResources)
{
    // Partitioning ROB/RS/LQ/SQ does NOT close the channel: ports and
    // MSHRs are fully shared by design.
    SmtChannelConfig cfg;
    cfg.scheme = SchemeKind::InvisiSpecSpectre;
    cfg.smt.robPolicy = cfg.smt.rsPolicy = cfg.smt.lqPolicy =
        cfg.smt.sqPolicy = SharingPolicy::Partitioned;
    const ProbeChannelResult res =
        runSmtContentionChannel(randomBits(8, 5), cfg);
    EXPECT_TRUE(res.calibration.usable);
    EXPECT_EQ(res.channel.bitErrors, 0u);
}

TEST(SmtChannelTest, LlcTraceDoesNotGrowAcrossTrials)
{
    // prepare() drops the previous trial's visible LLC trace, so a
    // long-lived harness holds one trial's worth, not every trial's.
    SmtAttackParams params;
    params.kind = SmtChannelKind::Mshr;
    SmtProbeHarness harness(buildSmtAttack(params),
                            SchemeKind::InvisiSpecSpectre);
    const Hierarchy &hier = harness.core().hierarchy();
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
