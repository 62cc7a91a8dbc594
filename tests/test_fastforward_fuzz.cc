/**
 * @file
 * Randomized differential fuzz for the stall fast-forward path.
 *
 * Each iteration derives an independent sub-seed (SplitMix64 over the
 * master seed), generates a random workload mix, and runs it twice —
 * once through the literal per-cycle tick loop (tests/literal_loop.hh)
 * and once through run(), which skips dead cycles — rotating through
 * the topologies the skip must compose with: a single Core, a
 * two-thread PipelineEngine, and 2-/4-core Systems with and without the
 * shared-LLC contention knobs (slice port busy time, finite shared
 * MSHRs). Every cycle count, per-thread stat and final architectural
 * register must match exactly; a mismatch prints the failing
 * iteration's seed so it can be replayed as a fixed-point regression.
 *
 * tests/test_golden_traces.cc pins the fixed-seed scenario points;
 * this file walks the configuration space around them. The fixed
 * cases at the end target the skip rules random programs rarely
 * stress: port denials bounded by the ports' free time (including the
 * advanced defense's preemption, which must never be skipped), loads
 * waiting on an older store's address, and timed actions landing
 * inside a skipped stall.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/smt_probe.hh"
#include "cpu/core.hh"
#include "cpu/pipeline/engine.hh"
#include "literal_loop.hh"
#include "memory/hierarchy.hh"
#include "sim/obs/metrics.hh"
#include "sim/rng.hh"
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
        EXPECT_EQ(a.siblingPort0Cycles, b.siblingPort0Cycles) << at;
        EXPECT_EQ(a.siblingMshrCycles, b.siblingMshrCycles) << at;
        EXPECT_EQ(ff.regHashes[i], base.regHashes[i])
            << at << " architectural state diverged";
    }
}

/** One fuzz point: the randomized inputs for a single comparison. */
struct FuzzPoint
{
    std::uint64_t seed = 0;
    SchemeKind scheme = SchemeKind::Unsafe;
    unsigned topology = 0;   ///< 0=Core, 1=engine 2T, 2/3=System 2/4c
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
    PipelineEngine core(CoreConfig{}, smt, 0, hier, mem);
    for (unsigned t = 0; t < 2; ++t)
        core.setScheme(t, makeScheme(pt.scheme));
    const EngineRunResult run = runEngine(
        core, {&pt.workloads[0].prog, &pt.workloads[1].prog}, literal);

    RunDigest d;
    d.cycles = run.cycles;
    d.finished = run.finished;
    d.threads = run.threads;
    for (unsigned t = 0; t < 2; ++t)
        d.regHashes.push_back(hashRegs(core, t));
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

// ---------------------------------------------------------------------
// Fixed cases for the skip rules
// ---------------------------------------------------------------------

/** Digest of @p run on @p eng (per-thread stats and registers). */
RunDigest
digestOf(const EngineRunResult &run, const PipelineEngine &eng)
{
    RunDigest d;
    d.cycles = run.cycles;
    d.finished = run.finished;
    d.threads = run.threads;
    for (unsigned t = 0; t < run.threads.size(); ++t)
        d.regHashes.push_back(hashRegs(eng, static_cast<ThreadId>(t)));
    return d;
}

/** core0.ff.skipped_cycles published by @p body's runs. */
template <typename Body>
std::uint64_t
skippedCycles(Body body)
{
    obs::MetricRegistry::global().clear();
    obs::setMetricsEnabled(true);
    body();
    obs::setMetricsEnabled(false);
    const obs::MetricsSnapshot snap =
        obs::MetricRegistry::global().snapshot();
    obs::MetricRegistry::global().clear();
    const obs::MetricSample *m = snap.find("core0.ff.skipped_cycles");
    return m ? m->count : 0;
}

/** run() and the literal loop on fresh engines with one thread per
 *  program in @p progs (a single-thread core, or two threads sharing
 *  the default SmtConfig), each over a fresh hierarchy prepared by
 *  @p prepare; thread 0 runs under @p scheme. The two must agree.
 *  @return the run() variant's skipped cycles. */
template <typename Prepare>
std::uint64_t
expectRunMatchesLiteral(const std::vector<const Program *> &progs,
                        SchemeKind scheme, Prepare prepare)
{
    SmtConfig smt;
    if (progs.size() == 1)
        smt = SmtConfig::singleThread();
    RunDigest got[2];
    std::uint64_t skipped = 0;
    for (const bool literal : {true, false}) {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        PipelineEngine eng(CoreConfig{}, smt, 0, hier, mem);
        eng.setScheme(0, makeScheme(scheme));
        prepare(hier, mem);
        if (literal)
            got[literal] = digestOf(literalRun(eng, progs), eng);
        else
            skipped = skippedCycles(
                [&] { got[literal] = digestOf(eng.run(progs), eng); });
    }
    EXPECT_TRUE(got[true].finished);
    expectDigestsEqual(got[false], got[true], schemeName(scheme));
    return skipped;
}

/** Warm every code line of @p progs into core 0's L1-I. */
void
warmCode(Hierarchy &hier, const std::vector<const Program *> &progs)
{
    for (const Program *p : progs)
        for (unsigned pc = 0; pc < p->size(); ++pc)
            hier.access(0, p->instLine(pc), AccessType::Instr, 0);
}

/** @p ops independent VSQRTPD ops, then Halt. */
Program
sqrtStream(unsigned ops)
{
    Program prog;
    prog.setReg(1, 9);
    for (unsigned k = 0; k < ops; ++k)
        prog.sqrt(static_cast<RegId>(16 + k % 16), 1);
    prog.halt();
    return prog;
}

/** A sibling thread's short ALU program, in its own code region. */
Program
shortAluProgram()
{
    Program prog(0x500000);
    prog.movi(1, 3);
    for (unsigned k = 0; k < 8; ++k)
        prog.alu(static_cast<RegId>(2 + k % 4), 1, 1);
    prog.halt();
    return prog;
}

TEST(FastForwardRuleTest, PortBlockedSqrtStreamIsSkipped)
{
    // Independent VSQRTPD ops queue for the one non-pipelined port-0
    // unit: every cycle but the one each op issues in, the next op is
    // a ready candidate denied the busy port. Under a scheme without
    // squashable EUs the denial changes nothing, so the probe bounds
    // the wait by the port's free time instead of ticking it, however
    // many younger sqrts queue behind the first. Alone and beside a
    // sibling's short ALU program.
    constexpr unsigned kOps = 24;
    const Program stream = sqrtStream(kOps);
    const Program sibling = shortAluProgram();
    for (const std::vector<const Program *> &progs :
         {std::vector<const Program *>{&stream},
          std::vector<const Program *>{&stream, &sibling}}) {
        SCOPED_TRACE(std::to_string(progs.size()) + " thread(s)");
        // Warm the code so the only stall left is the port queue.
        auto warm_code = [&progs](Hierarchy &hier, MainMemory &) {
            warmCode(hier, progs);
        };
        const std::uint64_t skipped =
            expectRunMatchesLiteral(progs, SchemeKind::Unsafe, warm_code);
        // Each op holds the port for its full latency. run() probes
        // after every tick, so per op only the cycles around its issue
        // and retirement are ticked; the rest of the wait is skipped.
        const Tick latency = opTraits(Op::FpSqrt).latency;
        EXPECT_GE(skipped, kOps * (latency - 3)) << skipped;
    }
}

TEST(FastForwardRuleTest, SqrtWokenInsidePortBusySpanMatchesLiteralLoop)
{
    // A holds port 0 and B queues behind it. C's source is an L1-hit
    // load that writes back while A still holds the port, so C becomes
    // ready inside the busy span, younger than the port-blocked B; D
    // queues from the start. Once B is denied, the issue stage and the
    // probe skip C and D with the rest of the thread's non-pipelined
    // ops, and the load's writeback bounds every probe until it
    // happens. All four are speculative (behind a branch on a cold
    // load), so under the advanced defense each denied sqrt first
    // tries to preempt A, which is older than all of them.
    constexpr Addr kCold = 0x80000;
    constexpr Addr kWarm = 0xa0000;
    Program prog;
    prog.setReg(1, 9);
    prog.load(6, kNoReg, static_cast<std::int64_t>(kCold), 1, "head");
    // Not taken (r6 = 7, r5 = 0), as the cold predictor predicts.
    const unsigned br = prog.branch(BranchCond::EQ, 6, 5, 0, "branch");
    prog.load(4, kNoReg, static_cast<std::int64_t>(kWarm), 1, "load");
    prog.sqrt(2, 1, "A");
    prog.sqrt(3, 1, "B");
    prog.sqrt(7, 4, "C");
    prog.sqrt(8, 1, "D");
    const unsigned end = prog.halt();
    prog.setBranchTarget(br, end);
    const Program sibling = shortAluProgram();
    for (const SchemeKind scheme :
         {SchemeKind::Unsafe, SchemeKind::AdvancedDefense}) {
        for (const std::vector<const Program *> &progs :
             {std::vector<const Program *>{&prog},
              std::vector<const Program *>{&prog, &sibling}}) {
            SCOPED_TRACE(std::to_string(progs.size()) + " thread(s)");
            expectRunMatchesLiteral(
                progs, scheme, [&progs](Hierarchy &hier, MainMemory &mem) {
                    mem.write(kCold, 7);
                    hier.access(0, kWarm, AccessType::Data, 0);
                    warmCode(hier, progs);
                });
        }
    }
}

TEST(FastForwardRuleTest, LoadBehindUnknownStoreAddressIsSkipped)
{
    // A store's address comes from a cold load, so the independent
    // loads behind it wait for disambiguation for a memory round trip.
    // Each is a ready candidate offered a free port that it cannot use:
    // the attempt changes nothing, so the probe bounds the wait by the
    // cold load's completion instead of ticking it.
    constexpr Addr kCold = 0x80000;
    constexpr Addr kStoreTo = 0x90000;
    constexpr Addr kWarm = 0xa0000;
    constexpr unsigned kLoads = 8;
    Program prog;
    prog.setReg(2, 5);
    prog.load(1, kNoReg, static_cast<std::int64_t>(kCold));
    prog.store(1, 2, static_cast<std::int64_t>(kStoreTo));
    for (unsigned k = 0; k < kLoads; ++k) {
        prog.load(static_cast<RegId>(8 + k), kNoReg,
                  static_cast<std::int64_t>(kWarm + kLineBytes * k));
    }
    prog.halt();
    auto warm = [&prog](Hierarchy &hier, MainMemory &) {
        for (unsigned k = 0; k < kLoads; ++k)
            hier.access(0, kWarm + kLineBytes * k, AccessType::Data, 0);
        for (unsigned pc = 0; pc < prog.size(); ++pc)
            hier.access(0, prog.instLine(pc), AccessType::Instr, 0);
    };
    const std::uint64_t skipped =
        expectRunMatchesLiteral({&prog}, SchemeKind::Unsafe, warm);
    EXPECT_GE(skipped, 100u) << skipped;
}

TEST(FastForwardRuleTest, PreemptingOlderSqrtIsNeverSkipped)
{
    // An older sqrt wakes up while a chain of younger, speculative
    // (behind an unresolved branch) sqrts keeps port 0 busy. Under the
    // advanced defense it preempts the holder the cycle it becomes
    // ready; skipping to the holder's free time instead would delay it
    // and diverge from the literal loop. Nothing else transitions in
    // that cycle: the sqrt's producer is an LLC hit behind a cold load
    // at the ROB head, which also feeds the branch. Both run() and a
    // one-core System probe after every tick, so each is checked.
    constexpr Addr kCold = 0x80000;
    constexpr Addr kWarm = 0xa0000;
    constexpr unsigned kChain = 24;
    Program prog;
    prog.setReg(4, 9);
    prog.load(6, kNoReg, static_cast<std::int64_t>(kCold), 1, "head");
    prog.load(1, kNoReg, static_cast<std::int64_t>(kWarm), 1, "warm");
    prog.sqrt(2, 1, "older");
    // Not taken (r6 = 7, r5 = 0), as the cold predictor predicts: the
    // chain is the correct path, speculative until the cold load
    // returns.
    const unsigned br = prog.branch(BranchCond::EQ, 6, 5, 0, "branch");
    prog.sqrt(3, 4);
    for (unsigned k = 1; k < kChain; ++k)
        prog.sqrt(3, 3);
    const unsigned end = prog.halt();
    prog.setBranchTarget(br, end);
    auto init = [&prog](Hierarchy &hier, MainMemory &mem) {
        mem.write(kCold, 7);
        hier.accessDirect(hier.config().cores, kWarm, 0);
        for (unsigned pc = 0; pc < prog.size(); ++pc)
            hier.access(0, prog.instLine(pc), AccessType::Instr, 0);
    };

    for (const SchemeKind scheme :
         {SchemeKind::AdvancedDefense, SchemeKind::DomNonTso}) {
        SCOPED_TRACE(schemeName(scheme));
        expectRunMatchesLiteral({&prog}, scheme, init);

        RunDigest got[2];
        for (const bool literal : {true, false}) {
            SystemConfig cfg;
            cfg.numCores = 1;
            System sys(cfg);
            sys.core(0).setScheme(0, makeScheme(scheme));
            init(sys.hierarchy(), sys.memory());
            const SystemRunResult run =
                literal ? literalRun(sys, {{&prog}}) : sys.run({{&prog}});
            got[literal] = digestOf(run.cores[0], sys.core(0));
        }
        expectDigestsEqual(got[false], got[true], "one-core System");
        // Only the advanced defense preempts: the preempted sqrt
        // issues twice.
        const ThreadStats &st = got[false].threads[0];
        EXPECT_EQ(st.squashes, 0u);
        EXPECT_EQ(st.issued, st.retired +
                                 (scheme == SchemeKind::AdvancedDefense));
    }
}

TEST(FastForwardRuleTest, SmtChannelTrialsMatchLiteralLoop)
{
    // The SMT probe's score is a sibling-occupancy integral, and its
    // port stream is one long port denial: both must come out of run()
    // exactly as the literal loop counts them, under every scheme.
    for (const SmtChannelKind kind :
         {SmtChannelKind::Port, SmtChannelKind::Mshr}) {
        SmtAttackParams params;
        params.kind = kind;
        const SmtAttack atk = buildSmtAttack(params);
        const std::vector<const Program *> progs = {&atk.victim,
                                                    &atk.probe};
        for (const SchemeKind scheme : allSchemes()) {
            SmtProbeHarness literal(atk, scheme);
            SmtProbeHarness skipping(atk, scheme);
            for (unsigned secret = 0; secret < 2; ++secret) {
                const std::string what =
                    smtChannelKindName(kind) + " " + schemeName(scheme) +
                    " secret " + std::to_string(secret);
                SCOPED_TRACE(what);
                literal.prepare(secret);
                skipping.prepare(secret);
                PipelineEngine &l = literal.core();
                PipelineEngine &r = skipping.core();
                const RunDigest base = digestOf(literalRun(l, progs), l);
                const RunDigest ff = digestOf(r.run(progs), r);
                expectDigestsEqual(ff, base, what);
            }
        }
    }
}

TEST(TimedActionTest, ReferenceInsideSkippedStallMatchesLiteralLoop)
{
    // A cold load stalls the core for a memory round trip; the
    // attacker's reference access is timed into the middle of it.
    constexpr Addr kCold = 0x80000;
    constexpr Addr kRef = 0x90000;
    constexpr Tick kRefAt = 100;
    Program prog;
    prog.load(1, kNoReg, static_cast<std::int64_t>(kCold));
    prog.alu(2, 1, 1);
    prog.halt();

    std::vector<VisibleAccess> traces[2];
    for (const bool literal : {true, false}) {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        Core core(CoreConfig{}, 0, hier, mem);
        PipelineEngine &eng = core.engine();
        bool fired = false;
        core.scheduleAction(kRefAt, [&] {
            EXPECT_EQ(eng.now(), kRefAt);
            hier.accessDirect(1, kRef, kRefAt);
            fired = true;
        });
        if (literal) {
            literalRun(eng, {&prog});
        } else {
            // Step into the stall: the probe stops at the action, not
            // at the load's completion beyond it.
            eng.beginRun({&prog});
            while (eng.now() < kRefAt / 2)
                ASSERT_TRUE(eng.step());
            EXPECT_EQ(eng.nextTransitionAt(), kRefAt);
            EXPECT_EQ(eng.fastForward(kTickMax), kRefAt - kRefAt / 2);
            EXPECT_FALSE(fired);
            // From here on, plain run() semantics.
            while (eng.step())
                eng.fastForward(kTickMax);
            eng.finishRun();
        }
        EXPECT_TRUE(fired);
        traces[literal] = hier.llcTrace();
    }
    ASSERT_EQ(traces[0].size(), traces[1].size());
    bool ref_seen = false;
    for (std::size_t i = 0; i < traces[0].size(); ++i) {
        EXPECT_EQ(traces[0][i], traces[1][i]) << "trace entry " << i;
        EXPECT_EQ(traces[0][i].when, traces[1][i].when)
            << "trace entry " << i;
        if (traces[0][i].lineAddr == kRef) {
            ref_seen = true;
            EXPECT_EQ(traces[0][i].when, kRefAt);
        }
    }
    EXPECT_TRUE(ref_seen);
}

TEST(TimedActionTest, ActionAfterTheRunEndsNeverFires)
{
    Program short_prog;
    short_prog.movi(1, 5);
    short_prog.halt();
    // Two dependent cold loads make the last run outlast the action's
    // time.
    Program long_prog;
    long_prog.load(1, kNoReg, 0x80000);
    long_prog.load(2, 1, 0x90000);
    long_prog.halt();

    for (const bool literal : {true, false}) {
        SCOPED_TRACE(literal ? "literal" : "run");
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        Core core(CoreConfig{}, 0, hier, mem);
        PipelineEngine &eng = core.engine();
        auto run = [&](const Program &p) {
            return literal ? literalRun(eng, {&p}) : eng.run({&p});
        };
        bool fired = false;
        const EngineRunResult first = run(short_prog);
        ASSERT_TRUE(first.finished);
        const Tick at = first.cycles + 20;
        core.scheduleAction(at, [&fired] { fired = true; });
        // Scheduled for the next run, which ends before cycle `at`.
        ASSERT_LT(run(short_prog).cycles, at);
        EXPECT_FALSE(fired);
        // Dropped at the end of that run: a longer run does not fire
        // it either.
        ASSERT_GT(run(long_prog).cycles, at);
        EXPECT_FALSE(fired);
    }
}

} // namespace
} // namespace specint
