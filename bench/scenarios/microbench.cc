/**
 * @file
 * Scenario: microbenchmarks of the simulator itself — raw cache-array
 * throughput, hierarchy accesses, full-core/SMT/System simulation
 * speed, receiver round cost, end-to-end trial cost, and the cost of
 * generating the synthetic SPEC2017-archetype programs. Formerly a
 * google-benchmark binary; now a self-timed scenario so the rows feed
 * the unified emitters and the CI perf-trajectory artifact
 * (BENCH_microbench.json) without an optional dependency.
 *
 * The one scenario whose output is inherently nondeterministic: it
 * reports wall-clock timings. --trials scales the measurement window
 * (~25 ms per trial per kernel).
 */

#include "scenarios/scenarios.hh"
#include "scenarios/util.hh"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/receiver.hh"
#include "attack/sender.hh"
#include "attack/smt_probe.hh"
#include "attack/trial_fixture.hh"
#include "cpu/core.hh"
#include "cpu/pipeline/engine.hh"
#include "sim/experiment/fixture_pool.hh"
#include "sim/experiment/report.hh"
#include "sim/stats.hh"
#include "spec/scheme.hh"
#include "system/system.hh"
#include "workload/generator.hh"

namespace specint::scenarios
{

namespace
{

using namespace experiment;

using Clock = std::chrono::steady_clock;

/** Keep the optimiser from discarding a measured computation. */
template <typename T>
inline void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/** Measured cost of one kernel. */
struct KernelResult
{
    std::uint64_t iters = 0;
    double nsPerOp = 0.0;
    /** Simulated cycles per wall-second (0 = not applicable). */
    double simCyclesPerSec = 0.0;
};

/**
 * Run @p body (signature: std::uint64_t body(std::uint64_t iters),
 * returning simulated cycles or 0) in growing batches until the
 * measurement window is filled.
 */
template <typename Body>
KernelResult
measure(Body &&body, unsigned trials)
{
    const auto window = std::chrono::milliseconds(25) * trials;
    KernelResult res;
    std::uint64_t batch = 1;
    std::uint64_t sim_cycles = 0;
    const Clock::time_point start = Clock::now();
    Clock::duration elapsed{};
    while ((elapsed = Clock::now() - start) < window) {
        sim_cycles += body(batch);
        res.iters += batch;
        if (batch < (1ULL << 20))
            batch *= 2;
    }
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    if (res.iters)
        res.nsPerOp = ns / static_cast<double>(res.iters);
    if (sim_cycles)
        res.simCyclesPerSec =
            static_cast<double>(sim_cycles) * 1e9 / ns;
    return res;
}

KernelResult
benchCacheArrayTouchHit(unsigned trials)
{
    CacheArray cache({"c", 64, 8, ReplKind::Qlru});
    cache.fill(0x1000);
    return measure(
        [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                keep(cache.touch(0x1000));
            return std::uint64_t{0};
        },
        trials);
}

KernelResult
benchCacheArrayFillEvict(unsigned trials)
{
    CacheArray cache({"c", 64, 8, ReplKind::Qlru});
    Addr a = 0;
    return measure(
        [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                cache.fill(a);
                a += 64 * 64; // same set, new line
            }
            return std::uint64_t{0};
        },
        trials);
}

KernelResult
benchHierarchyColdAccess(unsigned trials)
{
    Hierarchy hier(HierarchyConfig::small());
    Addr a = 0;
    Tick now = 0;
    return measure(
        [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                keep(hier.access(0, a, AccessType::Data, now++));
                a += 64;
                // Every access appends to the visible LLC trace; clear
                // it so the row times the access, not the trace
                // vector's growth.
                if (now % 1024 == 0)
                    hier.clearLlcTrace();
            }
            return std::uint64_t{0};
        },
        trials);
}

/** Memory-stall-bound variant of the simulation workloads: serial
 *  pointer chases over a footprint far beyond the small hierarchy, so
 *  the window fills and the core spends most cycles stalled on misses
 *  — the profile of the attack scenarios (secret-dependent misses)
 *  and the case stall fast-forward collapses. The default spec is the
 *  opposite extreme: a straight-line compulsory-miss instruction
 *  stream whose stall cycles drain the window. */
WorkloadSpec
memStallSpec(unsigned instructions)
{
    WorkloadSpec spec;
    spec.instructions = instructions;
    spec.loadFrac = 0.35;
    spec.chaseFrac = 0.5;
    spec.footprintLines = 4096;
    return spec;
}

KernelResult
benchCoreSimulation(unsigned trials, unsigned instructions,
                    bool memstall = false,
                    SchemeKind scheme = SchemeKind::Unsafe)
{
    WorkloadSpec spec =
        memstall ? memStallSpec(instructions) : WorkloadSpec{};
    spec.instructions = instructions;
    const GeneratedWorkload wl = generateWorkload(spec);
    return measure(
        [&](std::uint64_t n) {
            std::uint64_t cycles = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                Hierarchy hier(HierarchyConfig::small());
                MainMemory mem;
                for (const auto &[a, v] : wl.memInit)
                    mem.write(a, v);
                Core core(CoreConfig{}, 0, hier, mem);
                core.setScheme(makeScheme(scheme));
                cycles += core.run(wl.prog).cycles;
            }
            return cycles;
        },
        trials);
}

KernelResult
benchSmtCoreSimulation(unsigned trials, unsigned instructions,
                       bool memstall = false)
{
    WorkloadSpec spec =
        memstall ? memStallSpec(instructions) : WorkloadSpec{};
    spec.instructions = instructions;
    const GeneratedWorkload wl0 = generateWorkload(spec);
    spec.seed = 999;
    spec.storeFrac = 0.0;
    const GeneratedWorkload wl1 = generateWorkload(spec);
    return measure(
        [&](std::uint64_t n) {
            std::uint64_t cycles = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                Hierarchy hier(HierarchyConfig::small());
                MainMemory mem;
                for (const auto &[a, v] : wl0.memInit)
                    mem.write(a, v);
                for (const auto &[a, v] : wl1.memInit)
                    mem.write(a, v);
                PipelineEngine core(CoreConfig{}, SmtConfig{}, 0, hier, mem);
                cycles += core.run({&wl0.prog, &wl1.prog}).cycles;
            }
            return cycles;
        },
        trials);
}

/** The SMT port channel's trials (attack/smt_probe.hh): a victim whose
 *  mis-speculated VSQRTPD chain holds the non-pipelined port-0 unit iff
 *  the secret is 1, beside a probe thread streaming its own VSQRTPDs —
 *  the port-0 queue of the G^D_NPEU gadget, which the default
 *  SmtCoreSimulation workloads (no sqrt ops) never build. */
KernelResult
benchSmtPortChannel(unsigned trials)
{
    SmtAttackParams params;
    params.kind = SmtChannelKind::Port;
    SmtProbeHarness harness(buildSmtAttack(params),
                            SchemeKind::InvisiSpecSpectre);
    unsigned secret = 0;
    return measure(
        [&](std::uint64_t n) {
            std::uint64_t cycles = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                harness.prepare(secret ^= 1);
                cycles += harness.runTrial().cycles;
            }
            return cycles;
        },
        trials);
}

KernelResult
benchSystemSimulation(unsigned trials, unsigned instructions,
                      bool memstall = false)
{
    WorkloadSpec spec =
        memstall ? memStallSpec(instructions) : WorkloadSpec{};
    spec.instructions = instructions;
    spec.dataBase = 0x01000000;
    spec.codeBase = 0x400000;
    const GeneratedWorkload wl0 = generateWorkload(spec);
    spec.seed = 999;
    spec.dataBase = 0x02000000;
    spec.codeBase = 0x500000;
    const GeneratedWorkload wl1 = generateWorkload(spec);
    return measure(
        [&](std::uint64_t n) {
            std::uint64_t cycles = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                SystemConfig cfg;
                cfg.numCores = 2;
                cfg.hier.llcPortBusy = 2;
                cfg.hier.llcMshrs = 8;
                System sys(cfg);
                for (const auto &[a, v] : wl0.memInit)
                    sys.memory().write(a, v);
                for (const auto &[a, v] : wl1.memInit)
                    sys.memory().write(a, v);
                const SystemRunResult r =
                    sys.run({{&wl0.prog}, {&wl1.prog}});
                for (const auto &c : r.cores)
                    cycles += c.cycles;
            }
            return cycles;
        },
        trials);
}

KernelResult
benchReceiverPrimeDecode(unsigned trials)
{
    Hierarchy hier(HierarchyConfig::small());
    AttackerAgent attacker(hier, 1);
    const Addr a = 0x01000040;
    const Addr b = findCongruentAddr(hier, a, 0x40000000);
    QlruReceiver recv(hier, attacker, a, b);
    return measure(
        [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                recv.prime();
                hier.access(0, a, AccessType::Data, 0);
                hier.access(0, b, AccessType::Data, 0);
                keep(recv.decode());
            }
            return std::uint64_t{0};
        },
        trials);
}

KernelResult
benchEndToEndAttackTrial(unsigned trials)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core victim(CoreConfig{}, 0, hier, mem);
    victim.setScheme(makeScheme(SchemeKind::DomNonTso));
    AttackerAgent attacker(hier, 1);
    TrialHarness harness(hier, mem, victim, attacker);
    SenderParams params;
    params.gadget = GadgetKind::Npeu;
    params.ordering = OrderingKind::VdVd;
    const SenderProgram sp = buildSender(params, hier);
    unsigned secret = 0;
    return measure(
        [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                harness.prepare(sp, secret ^= 1);
                keep(harness.run(sp).orderSignal());
            }
            return std::uint64_t{0};
        },
        trials);
}

/** Cost of standing up a full attack substrate (hierarchy + memory +
 *  victim core + attacker + harness) from scratch — what every trial
 *  paid before the per-worker fixture pool existed. */
KernelResult
benchTrialSetupFresh(unsigned trials)
{
    const CoreConfig core;
    const HierarchyConfig hier = HierarchyConfig::small();
    return measure(
        [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                AttackFixture fx(core, hier);
                keep(fx.harness);
            }
            return std::uint64_t{0};
        },
        trials);
}

/** Cost of acquiring the same substrate through the per-worker
 *  fixture pool: key lookup plus resetForRun() on a cached fixture.
 *  The fresh/reuse ratio is the per-trial setup saving the sweep
 *  runner banks on short-trial sweeps. */
KernelResult
benchTrialSetupReuse(unsigned trials)
{
    const CoreConfig core;
    const HierarchyConfig hier = HierarchyConfig::small();
    return measure(
        [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                AttackFixture &fx = acquireAttackFixture(core, hier);
                keep(fx.harness);
            }
            return std::uint64_t{0};
        },
        trials);
}

/** Cost of building perfbench defense_suite's programs at its seed 1:
 *  the 12 SPEC2017 archetypes at 600 instructions, two seeds each,
 *  through generateWorkload. One op builds all 24; the throughput
 *  column counts generated instructions, not simulated cycles. */
KernelResult
benchWorkloadGenerate(unsigned trials)
{
    std::vector<WorkloadSpec> specs;
    std::uint64_t k = 0;
    for (const WorkloadSpec &base : spec2017Archetypes(600)) {
        for (unsigned v = 0; v < 2; ++v) {
            specs.push_back(base);
            specs.back().seed = splitSeed(1, k++);
        }
    }
    return measure(
        [&](std::uint64_t n) {
            std::uint64_t instructions = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                for (const WorkloadSpec &spec : specs) {
                    const GeneratedWorkload wl = generateWorkload(spec);
                    instructions += wl.prog.size();
                }
            }
            return instructions;
        },
        trials);
}

struct Kernel
{
    const char *name;
    KernelResult (*run)(unsigned trials);
};

const Kernel kKernels[] = {
    {"CacheArrayTouchHit", benchCacheArrayTouchHit},
    {"CacheArrayFillEvict", benchCacheArrayFillEvict},
    {"HierarchyColdAccess", benchHierarchyColdAccess},
    {"CoreSimulation/1000",
     [](unsigned t) { return benchCoreSimulation(t, 1000); }},
    {"CoreSimulation/4000",
     [](unsigned t) { return benchCoreSimulation(t, 4000); }},
    {"CoreSimulation/4000/memstall",
     [](unsigned t) { return benchCoreSimulation(t, 4000, true); }},
    // The same workload under DoM: a row that is not Unsafe, so the gate
    // also times the scheme paths, the store-frontier wait among them.
    {"CoreSimulation/4000/memstall/dom",
     [](unsigned t) {
         return benchCoreSimulation(t, 4000, true, SchemeKind::DomNonTso);
     }},
    {"SmtCoreSimulation/1000",
     [](unsigned t) { return benchSmtCoreSimulation(t, 1000); }},
    {"SmtCoreSimulation/4000",
     [](unsigned t) { return benchSmtCoreSimulation(t, 4000); }},
    {"SmtCoreSimulation/4000/memstall",
     [](unsigned t) { return benchSmtCoreSimulation(t, 4000, true); }},
    {"SmtCoreSimulation/port-channel", benchSmtPortChannel},
    {"SystemSimulation/1000",
     [](unsigned t) { return benchSystemSimulation(t, 1000); }},
    {"SystemSimulation/4000",
     [](unsigned t) { return benchSystemSimulation(t, 4000); }},
    {"SystemSimulation/4000/memstall",
     [](unsigned t) { return benchSystemSimulation(t, 4000, true); }},
    {"ReceiverPrimeDecode", benchReceiverPrimeDecode},
    {"EndToEndAttackTrial", benchEndToEndAttackTrial},
    {"TrialSetup/fresh", benchTrialSetupFresh},
    {"TrialSetup/reuse", benchTrialSetupReuse},
    {"WorkloadGenerate/spec2017x600", benchWorkloadGenerate},
};

PointResult
runPoint(const PointContext &ctx, const RunOptions &)
{
    const std::string &name = ctx.point.at("bench");
    PointResult res;
    for (const Kernel &k : kKernels) {
        if (name != k.name)
            continue;
        const KernelResult r = k.run(ctx.trials);
        res.rows.push_back({Value::str(name),
                            Value::uinteger(r.iters),
                            Value::real(r.nsPerOp, 1),
                            Value::real(r.simCyclesPerSec, 0)});
        return res;
    }
    throw std::out_of_range("unknown microbench kernel '" + name +
                            "'");
}

int
renderLegacy(const Report &report, const RunOptions &, std::FILE *out)
{
    std::fprintf(out,
                 "=== Microbenchmarks of the simulator itself ===\n\n");
    TextTable table(
        {"bench", "iterations", "ns/op", "sim cycles/sec"});
    for (const Row &row : report.allRows()) {
        const double cps = row[3].num();
        table.addRow({row[0].text(), row[1].text(), row[2].text(),
                      cps > 0.0 ? row[3].text() : "-"});
    }
    std::fprintf(out, "%s\n", table.render().c_str());
    std::fprintf(out,
                 "sim cycles/sec: simulated-cycles-per-wall-second of "
                 "the core/SMT/System kernels\n(the headline "
                 "simulation-speed metric; timings are wall-clock and "
                 "machine-dependent).\nWorkloadGenerate's column counts "
                 "generated instructions per wall-second.\n");
    return 0;
}

} // namespace

void
registerMicrobench(experiment::ScenarioRegistry &r)
{
    Scenario sc;
    sc.name = "microbench";
    sc.description = "self-timed microbenchmarks of the simulator "
                     "(cache array, hierarchy, core/SMT/System, "
                     "receiver, end-to-end trial, workload "
                     "generation)";
    sc.paperRef = "";
    sc.defaultTrials = 4;
    sc.defaultSeed = 0;
    sc.trialsMeaning = "measurement window multiplier (~25 ms each)";
    // Rows are wall-clock timings of *this* host right now — caching
    // them would serve stale perf numbers, so the result cache refuses
    // to memoize this scenario.
    sc.cacheable = false;
    sc.columns = {"bench", "iterations", "ns_per_op",
                  "sim_cycles_per_sec"};
    sc.extraFlags = {{"sim-only",
                      "1 = only the core/SMT/System simulation and "
                      "trial-setup rows (CI perf-layout smoke)",
                      0}};
    sc.sweep = [](const RunOptions &opts) {
        const bool simOnly = opts.extraOr("sim-only", 0) != 0;
        std::vector<std::string> names;
        for (const Kernel &k : kKernels) {
            const std::string name = k.name;
            if (simOnly &&
                name.find("Simulation") == std::string::npos &&
                name.find("TrialSetup") == std::string::npos) {
                continue;
            }
            names.push_back(name);
        }
        SweepSpec spec;
        spec.axis("bench", std::move(names));
        return spec;
    };
    sc.run = runPoint;
    sc.renderLegacy = renderLegacy;
    r.add(std::move(sc));
}

} // namespace specint::scenarios
