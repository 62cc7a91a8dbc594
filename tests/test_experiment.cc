/**
 * @file
 * Tests of the experiment subsystem (src/sim/experiment/): sweep
 * expansion, registry semantics, the shared CLI layer, report
 * emitters, and — the load-bearing property — that the parallel
 * runner produces row-for-row identical results to serial execution,
 * both on a synthetic scenario and on the registered Table 1 sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "scenarios/scenarios.hh"
#include "sim/experiment/cli.hh"
#include "sim/experiment/driver.hh"
#include "sim/experiment/fixture_pool.hh"
#include "sim/experiment/registry.hh"
#include "sim/experiment/report.hh"
#include "sim/experiment/runner.hh"
#include "sim/experiment/sweep.hh"
#include "sim/experiment/value.hh"

using namespace specint;
using namespace specint::experiment;

// --------------------------------------------------------------------------
// SweepSpec
// --------------------------------------------------------------------------

TEST(SweepSpec, CartesianExpansionCounts)
{
    SweepSpec spec;
    spec.axis("a", {"1", "2", "3"}).axis("b", {"x", "y", "z", "w"});
    EXPECT_EQ(spec.size(), 12u);
    EXPECT_EQ(spec.expand().size(), 12u);

    spec.axis("c", {"p", "q"});
    EXPECT_EQ(spec.size(), 24u);
    EXPECT_EQ(spec.expand().size(), 24u);
}

TEST(SweepSpec, RowMajorOrderFirstAxisSlowest)
{
    SweepSpec spec;
    spec.axis("a", {"1", "2"}).axis("b", {"x", "y", "z"});
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 6u);
    // Last axis fastest: (1,x) (1,y) (1,z) (2,x) ...
    EXPECT_EQ(points[0].at("a"), "1");
    EXPECT_EQ(points[0].at("b"), "x");
    EXPECT_EQ(points[1].at("b"), "y");
    EXPECT_EQ(points[2].at("b"), "z");
    EXPECT_EQ(points[3].at("a"), "2");
    EXPECT_EQ(points[3].at("b"), "x");
    EXPECT_EQ(points[5].at("a"), "2");
    EXPECT_EQ(points[5].at("b"), "z");
}

TEST(SweepSpec, NoAxesIsOneTrivialPoint)
{
    SweepSpec spec;
    EXPECT_EQ(spec.size(), 1u);
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_TRUE(points[0].axisNames().empty());
}

TEST(SweepSpec, EmptyAxisThrows)
{
    SweepSpec spec;
    spec.axis("a", {});
    EXPECT_THROW(spec.expand(), std::invalid_argument);
}

TEST(SweepSpec, UnknownAxisLookupThrows)
{
    SweepSpec spec;
    spec.axis("a", {"1"});
    const auto points = spec.expand();
    EXPECT_THROW(points[0].at("nope"), std::out_of_range);
}

// --------------------------------------------------------------------------
// Seed splitting
// --------------------------------------------------------------------------

TEST(SplitSeed, DeterministicAndWellSpread)
{
    EXPECT_EQ(splitSeed(42, 0), splitSeed(42, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(splitSeed(42, i));
    EXPECT_EQ(seen.size(), 1000u);
    // Different bases give different streams.
    EXPECT_NE(splitSeed(1, 0), splitSeed(2, 0));
}

// --------------------------------------------------------------------------
// ScenarioRegistry
// --------------------------------------------------------------------------

namespace
{

Scenario
trivialScenario(const std::string &name)
{
    Scenario sc;
    sc.name = name;
    sc.columns = {"v"};
    sc.sweep = [](const RunOptions &) { return SweepSpec{}; };
    sc.run = [](const PointContext &, const RunOptions &) {
        PointResult res;
        res.rows.push_back({Value::integer(1)});
        return res;
    };
    return sc;
}

} // namespace

TEST(ScenarioRegistry, LookupFindsRegisteredScenario)
{
    ScenarioRegistry reg;
    reg.add(trivialScenario("alpha"));
    reg.add(trivialScenario("beta"));
    EXPECT_EQ(reg.size(), 2u);
    ASSERT_NE(reg.find("alpha"), nullptr);
    EXPECT_EQ(reg.find("alpha")->name, "alpha");
    EXPECT_EQ(reg.find("gamma"), nullptr);
}

TEST(ScenarioRegistry, DuplicateNameRejected)
{
    ScenarioRegistry reg;
    reg.add(trivialScenario("alpha"));
    EXPECT_THROW(reg.add(trivialScenario("alpha")),
                 std::invalid_argument);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(ScenarioRegistry, EmptyNameAndMissingRunRejected)
{
    ScenarioRegistry reg;
    EXPECT_THROW(reg.add(trivialScenario("")), std::invalid_argument);
    Scenario no_run = trivialScenario("norun");
    no_run.run = nullptr;
    EXPECT_THROW(reg.add(std::move(no_run)), std::invalid_argument);
}

// --------------------------------------------------------------------------
// CliArgs
// --------------------------------------------------------------------------

namespace
{

CliParse
parseArgs(const CliArgs &cli, std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string prog = "prog";
    argv.push_back(prog.data());
    for (std::string &a : args)
        argv.push_back(a.data());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(CliArgs, DefaultsApplied)
{
    const CliArgs cli("prog", 7, 1234, {{"bits", "bits", 24}});
    const CliParse p = parseArgs(cli, {});
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(p.options.trials, 7u);
    EXPECT_EQ(p.options.seed, 1234u);
    EXPECT_EQ(p.options.jobs, 1u);
    EXPECT_EQ(p.options.format, OutputFormat::Legacy);
    EXPECT_EQ(p.options.extraOr("bits", 0), 24u);
}

TEST(CliArgs, SharedKnobsParse)
{
    const CliArgs cli("prog", 1, 0);
    const CliParse p = parseArgs(
        cli, {"--trials", "9", "--seed", "77", "--jobs", "3", "--csv",
              "--out", "file.csv"});
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.options.trials, 9u);
    EXPECT_EQ(p.options.seed, 77u);
    EXPECT_EQ(p.options.jobs, 3u);
    EXPECT_EQ(p.options.format, OutputFormat::Csv);
    EXPECT_EQ(p.options.outPath, "file.csv");
}

TEST(CliArgs, UnknownFlagRejectedNotIgnored)
{
    // The old hand-rolled loops silently ignored typos like --cvs
    // (several benches ignored argv entirely); the shared layer must
    // reject them.
    const CliArgs cli("prog", 1, 0);
    const CliParse p = parseArgs(cli, {"--cvs"});
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("--cvs"), std::string::npos);
}

TEST(CliArgs, MalformedAndMissingValuesRejected)
{
    const CliArgs cli("prog", 1, 0, {{"bits", "bits", 24}});
    EXPECT_FALSE(parseArgs(cli, {"--trials", "abc"}).ok);
    EXPECT_FALSE(parseArgs(cli, {"--trials", "12x"}).ok);
    EXPECT_FALSE(parseArgs(cli, {"--seed"}).ok);
    EXPECT_FALSE(parseArgs(cli, {"--bits"}).ok);
    EXPECT_FALSE(parseArgs(cli, {"--trials", "0"}).ok);
}

TEST(CliArgs, ExtraFlagParsesAndJobsZeroMeansHardware)
{
    const CliArgs cli("prog", 1, 0, {{"bits", "bits", 24}});
    const CliParse p = parseArgs(cli, {"--bits", "64", "--jobs", "0"});
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.options.extraOr("bits", 0), 64u);
    // 0 passes through; the runner is the single resolution point.
    EXPECT_EQ(p.options.jobs, 0u);
    EXPECT_EQ(ExperimentRunner(0).jobs(),
              std::max(1u, std::thread::hardware_concurrency()));
}

TEST(CliArgs, HelpRequested)
{
    const CliArgs cli("prog", 1, 0);
    const CliParse p = parseArgs(cli, {"--help"});
    EXPECT_TRUE(p.ok);
    EXPECT_TRUE(p.helpRequested);
    EXPECT_NE(cli.usage().find("--trials"), std::string::npos);
}

// --------------------------------------------------------------------------
// Value / emitters
// --------------------------------------------------------------------------

TEST(Value, TextAndJsonRenderings)
{
    EXPECT_EQ(Value::str("hi").text(), "hi");
    EXPECT_EQ(Value::str("a\"b\n").json(), "\"a\\\"b\\n\"");
    EXPECT_EQ(Value::integer(-3).text(), "-3");
    EXPECT_EQ(Value::uinteger(7).json(), "7");
    EXPECT_EQ(Value::real(1.23456, 2).text(), "1.23");
    EXPECT_EQ(Value::real(2.5, 0).text(), "2");
    EXPECT_EQ(Value::boolean(true).text(), "1");
    EXPECT_EQ(Value::boolean(false).json(), "false");
    EXPECT_EQ(Value::real(1.5, 1).num(), 1.5);
}

// --------------------------------------------------------------------------
// ExperimentRunner: parallel == serial determinism
// --------------------------------------------------------------------------

namespace
{

/** Synthetic sweep whose rows depend on point coordinates, the trial
 *  seeds and --trials, with deliberately unbalanced point costs. */
Scenario
syntheticScenario(std::atomic<unsigned> *executions = nullptr)
{
    Scenario sc;
    sc.name = "synthetic";
    sc.columns = {"a", "b", "checksum"};
    sc.defaultTrials = 3;
    sc.sweep = [](const RunOptions &) {
        SweepSpec spec;
        spec.axis("a", {"0", "1", "2", "3", "4"})
            .axis("b", {"0", "1", "2", "3", "4", "5", "6", "7"});
        return spec;
    };
    sc.run = [executions](const PointContext &ctx,
                          const RunOptions &) {
        if (executions)
            executions->fetch_add(1);
        // Unbalanced busy-work so schedulers interleave differently.
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0;
             i < 10'000 * (1 + ctx.pointIndex % 7); ++i)
            sink = sink + i; // (compound volatile ops are deprecated)
        std::uint64_t checksum = 0;
        for (unsigned t = 0; t < ctx.trials; ++t)
            checksum ^= ctx.trialSeed(t);
        PointResult res;
        res.rows.push_back({Value::str(ctx.point.at("a")),
                            Value::str(ctx.point.at("b")),
                            Value::uinteger(checksum)});
        res.legacy = ctx.point.at("a") + ctx.point.at("b") + ";";
        return res;
    };
    return sc;
}

RunOptions
optionsWith(unsigned jobs, unsigned trials = 3,
            std::uint64_t seed = 99)
{
    RunOptions opt;
    opt.jobs = jobs;
    opt.trials = trials;
    opt.seed = seed;
    return opt;
}

} // namespace

TEST(ExperimentRunner, ParallelMatchesSerialRowForRow)
{
    const Scenario sc = syntheticScenario();
    const Report serial =
        ExperimentRunner(1).run(sc, optionsWith(1));

    for (unsigned jobs : {2u, 4u, 7u}) {
        const Report parallel =
            ExperimentRunner(jobs).run(sc, optionsWith(jobs));
        ASSERT_EQ(parallel.points.size(), serial.points.size());
        // Row-for-row identical: the emitted CSV (grid order) and the
        // per-point legacy fragments must match exactly.
        EXPECT_EQ(parallel.renderCsv(), serial.renderCsv())
            << "jobs=" << jobs;
        for (std::size_t i = 0; i < serial.points.size(); ++i)
            EXPECT_EQ(parallel.points[i].legacy,
                      serial.points[i].legacy);
    }
}

TEST(ExperimentRunner, EveryPointExecutesExactlyOnce)
{
    std::atomic<unsigned> executions{0};
    const Scenario sc = syntheticScenario(&executions);
    const Report rep = ExperimentRunner(4).run(sc, optionsWith(4));
    EXPECT_EQ(executions.load(), 40u);
    EXPECT_EQ(rep.allRows().size(), 40u);
    // Every point slot must be filled (no stolen-and-dropped tasks).
    for (const ReportPoint &p : rep.points)
        EXPECT_EQ(p.rows.size(), 1u);
}

TEST(ExperimentRunner, KeepsMoreThanOnePointInFlight)
{
    // What a parallel speedup depends on, checked without a clock
    // race: at jobs = 2 two points run at once. Each point waits for a
    // second one to start (bounded by one shared deadline, so a serial
    // runner fails in seconds instead of hanging).
    std::atomic<unsigned> in_flight{0};
    std::atomic<unsigned> max_in_flight{0};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    Scenario sc = syntheticScenario();
    const auto inner = sc.run;
    sc.run = [&, inner](const PointContext &ctx, const RunOptions &opt) {
        const unsigned now = in_flight.fetch_add(1) + 1;
        unsigned seen = max_in_flight.load();
        while (seen < now &&
               !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        while (max_in_flight.load() < 2 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        PointResult res = inner(ctx, opt);
        in_flight.fetch_sub(1);
        return res;
    };

    const Report parallel = ExperimentRunner(2).run(sc, optionsWith(2));
    EXPECT_EQ(max_in_flight.load(), 2u);

    const Report serial =
        ExperimentRunner(1).run(syntheticScenario(), optionsWith(1));
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    EXPECT_EQ(parallel.renderCsv(), serial.renderCsv());
    for (std::size_t i = 0; i < serial.points.size(); ++i)
        EXPECT_EQ(parallel.points[i].legacy, serial.points[i].legacy);
}

TEST(ExperimentRunner, SeedAndTrialsChangeResults)
{
    const Scenario sc = syntheticScenario();
    const Report base = ExperimentRunner(1).run(sc, optionsWith(1));
    const Report reseeded =
        ExperimentRunner(1).run(sc, optionsWith(1, 3, 100));
    const Report more_trials =
        ExperimentRunner(1).run(sc, optionsWith(1, 5));
    EXPECT_NE(base.renderCsv(), reseeded.renderCsv());
    EXPECT_NE(base.renderCsv(), more_trials.renderCsv());
}

TEST(ExperimentRunner, PointExceptionPropagates)
{
    Scenario sc = trivialScenario("thrower");
    sc.sweep = [](const RunOptions &) {
        SweepSpec spec;
        spec.axis("i", {"0", "1", "2", "3", "4", "5", "6", "7"});
        return spec;
    };
    sc.run = [](const PointContext &ctx, const RunOptions &) {
        if (ctx.point.at("i") == "5")
            throw std::runtime_error("boom");
        return PointResult{};
    };
    RunOptions opt = optionsWith(4);
    EXPECT_THROW(ExperimentRunner(4).run(sc, opt),
                 std::runtime_error);
    EXPECT_THROW(ExperimentRunner(1).run(sc, opt),
                 std::runtime_error);
}

// --------------------------------------------------------------------------
// Registered scenarios (bench/scenarios/)
// --------------------------------------------------------------------------

TEST(RegisteredScenarios, AllBenchesRegistered)
{
    const ScenarioRegistry &reg = scenarios::all();
    for (const char *name :
         {"table1", "fig7", "fig8", "fig11", "fig12",
          "ablation_advanced", "ablation_mshr", "ablation_rs",
          "ablation_smt", "ablation_cross_core", "ablation_coherence",
          "microbench"}) {
        EXPECT_NE(reg.find(name), nullptr) << name;
    }
    EXPECT_EQ(reg.size(), 12u);
}

namespace
{

/** JSON with the run-metadata lines that legitimately differ between
 *  equivalent runs removed: host timings (wall_us / cpu_us) and the
 *  job count. Everything else must be byte-identical. */
std::string
redactTimings(const std::string &json)
{
    std::string out;
    out.reserve(json.size());
    std::size_t pos = 0;
    while (pos < json.size()) {
        std::size_t end = json.find('\n', pos);
        if (end == std::string::npos)
            end = json.size();
        const std::string line = json.substr(pos, end - pos);
        if (line.find("\"wall_us\"") == std::string::npos &&
            line.find("\"cpu_us\"") == std::string::npos &&
            line.find("\"jobs\"") == std::string::npos) {
            out += line;
            out += '\n';
        }
        pos = end + 1;
    }
    return out;
}

/** Run under an explicit fixture-reuse setting, restoring the
 *  previous one. */
Report
runWithReuse(const Scenario &sc, const RunOptions &opt, bool reuse)
{
    const bool prev = fixtureReuseEnabled();
    setFixtureReuse(reuse);
    const Report rep =
        ExperimentRunner(opt.jobs ? opt.jobs : 1).run(sc, opt);
    setFixtureReuse(prev);
    return rep;
}

} // namespace

TEST(RegisteredScenarios, Table1ParallelMatchesSerial)
{
    const Scenario *sc = scenarios::all().find("table1");
    ASSERT_NE(sc, nullptr);

    RunOptions serial_opt;
    serial_opt.jobs = 1;
    const Report serial = ExperimentRunner(1).run(*sc, serial_opt);
    EXPECT_EQ(serial.allRows().size(), 96u); // 8 cells x 12 schemes

    RunOptions par_opt;
    par_opt.jobs = 4;
    const Report parallel = ExperimentRunner(4).run(*sc, par_opt);

    EXPECT_EQ(parallel.renderCsv(), serial.renderCsv());
    EXPECT_EQ(redactTimings(parallel.renderJson()),
              redactTimings(serial.renderJson()));
}

TEST(RegisteredScenarios, Table1FixtureReuseIsByteIdentical)
{
    // The per-worker pooled fixture (attack/trial_fixture.hh) must be
    // invisible in the results: a sweep over reused fixtures emits
    // exactly the bytes a construct-per-cell sweep does, for both the
    // serial and the parallel paths.
    const Scenario *sc = scenarios::all().find("table1");
    ASSERT_NE(sc, nullptr);

    RunOptions opt;
    opt.jobs = 1;
    const Report fresh = runWithReuse(*sc, opt, false);
    const Report reused = runWithReuse(*sc, opt, true);
    EXPECT_EQ(fresh.renderCsv(), reused.renderCsv());
    EXPECT_EQ(redactTimings(fresh.renderJson()),
              redactTimings(reused.renderJson()));

    opt.jobs = 4;
    const Report par_reused = runWithReuse(*sc, opt, true);
    EXPECT_EQ(fresh.renderCsv(), par_reused.renderCsv());
}

TEST(RegisteredScenarios, Fig11FixtureReuseIsByteIdentical)
{
    // Same property for the covert-channel scenario, which exercises
    // the pooled fixture through both channel entry points and the
    // per-run noise/seed plumbing: per-trial seeding with reuse must
    // match construct-per-trial exactly.
    const Scenario *sc = scenarios::all().find("fig11");
    ASSERT_NE(sc, nullptr);

    RunOptions opt;
    opt.jobs = 1;
    opt.trials = 6; // short message; identity, not error rates
    opt.seed = sc->defaultSeed;
    const Report fresh = runWithReuse(*sc, opt, false);
    const Report reused = runWithReuse(*sc, opt, true);
    EXPECT_EQ(fresh.renderCsv(), reused.renderCsv());
    EXPECT_EQ(redactTimings(fresh.renderJson()),
              redactTimings(reused.renderJson()));
}

TEST(RegisteredScenarios, SweepSizesMatchLegacyGrids)
{
    const ScenarioRegistry &reg = scenarios::all();
    const struct
    {
        const char *name;
        std::size_t points;
    } expected[] = {
        {"table1", 96},  {"fig7", 1},
        {"fig8", 2},     {"fig11", 10},
        {"fig12", 12},   {"ablation_advanced", 5},
        {"ablation_mshr", 7}, {"ablation_rs", 6},
        {"ablation_smt", 72}, {"ablation_cross_core", 24},
        {"microbench", 18},
    };
    for (const auto &e : expected) {
        const Scenario *sc = reg.find(e.name);
        ASSERT_NE(sc, nullptr) << e.name;
        RunOptions defaults;
        defaults.trials = sc->defaultTrials;
        defaults.seed = sc->defaultSeed;
        for (const ExtraFlag &f : sc->extraFlags)
            defaults.extra[f.name] = f.defaultValue;
        EXPECT_EQ(sc->sweep(defaults).size(), e.points) << e.name;
    }
}

TEST(RegisteredScenarios, MicrobenchSimOnlyFiltersToSimulationRows)
{
    const Scenario *sc = scenarios::all().find("microbench");
    ASSERT_NE(sc, nullptr);
    RunOptions opts;
    opts.trials = sc->defaultTrials;
    opts.extra["sim-only"] = 1;
    const SweepSpec spec = sc->sweep(opts);
    EXPECT_EQ(spec.size(), 13u); // 11 simulation + 2 trial-setup rows
    for (const SweepPoint &pt : spec.expand()) {
        const std::string &name = pt.at("bench");
        EXPECT_TRUE(name.find("Simulation") != std::string::npos ||
                    name.find("TrialSetup") != std::string::npos)
            << name;
    }
}

TEST(Report, JsonIsStructurallySound)
{
    const Scenario sc = syntheticScenario();
    const Report rep = ExperimentRunner(1).run(sc, optionsWith(1));
    const std::string json = rep.renderJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"scenario\": \"synthetic\""),
              std::string::npos);
    EXPECT_NE(json.find("\"rows\": ["), std::string::npos);
    EXPECT_NE(json.find("\"checksum\": "), std::string::npos);
    // Balanced braces/brackets (no raw strings contain them here).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(Report, WriteOutCreatesMissingParentDirectories)
{
    // --out/--metrics-out/--trace-out all route through writeOut: an
    // output path in a not-yet-existing results tree must be created,
    // not fail after the sweep already ran.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() /
        ("specsim_writeout_" + std::to_string(::getpid()));
    const fs::path nested = root / "a" / "b" / "out.csv";
    ASSERT_FALSE(fs::exists(root));

    EXPECT_TRUE(writeOut(nested.string(), "col\n1\n"));
    std::ifstream in(nested);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(body, "col\n1\n");

    // A path whose "parent" is a file, not a directory, fails loudly.
    EXPECT_FALSE(
        writeOut((nested / "impossible.csv").string(), "x"));

    std::error_code ec;
    fs::remove_all(root, ec);
}

TEST(Driver, EveryFormatWritesItsRenderingAndExitsWithTheVerdict)
{
    // One emit path: the legacy text is rendered in every format, so
    // the scenario's verdict is the exit code of --csv and --json runs
    // too, and each format's --out file holds exactly its rendering.
    namespace fs = std::filesystem;
    Scenario sc = syntheticScenario();
    sc.renderLegacy = [](const Report &report, const RunOptions &,
                         std::FILE *out) {
        for (const ReportPoint &p : report.points)
            std::fputs(p.legacy.c_str(), out);
        std::fputs("\nverdict: broken\n", out);
        return 3;
    };
    ScenarioRegistry registry;
    registry.add(sc);

    RunOptions defaults;
    defaults.trials = sc.defaultTrials;
    defaults.seed = sc.defaultSeed;
    const Report report = ExperimentRunner(1).run(sc, defaults);
    std::string legacy;
    for (const ReportPoint &p : report.points)
        legacy += p.legacy;
    legacy += "\nverdict: broken\n";
    // The JSON from "columns" on: the header carries jobs and timings.
    auto jsonRows = [](const std::string &json) {
        const std::size_t at = json.find("\"columns\"");
        return at == std::string::npos ? std::string() : json.substr(at);
    };
    auto readFile = [](const fs::path &path) {
        std::ifstream in(path);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };

    const fs::path root =
        fs::temp_directory_path() /
        ("specsim_emit_" + std::to_string(::getpid()));
    for (const std::string jobs : {"1", "4"}) {
        for (const std::string format : {"legacy", "csv", "json"}) {
            SCOPED_TRACE(format + " --jobs " + jobs);
            const fs::path out = root / (format + "-j" + jobs + ".out");
            std::vector<std::string> args = {sc.name, "--out", out.string(),
                                             "--jobs", jobs};
            if (format != "legacy")
                args.push_back("--" + format);
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            EXPECT_EQ(runScenarioCli(registry, sc.name,
                                     static_cast<int>(argv.size()),
                                     argv.data()),
                      3);
            const std::string text = readFile(out);
            if (format == "legacy")
                EXPECT_EQ(text, legacy);
            else if (format == "csv")
                EXPECT_EQ(text, report.renderCsv());
            else
                EXPECT_EQ(jsonRows(text), jsonRows(report.renderJson()));
        }
    }
    EXPECT_FALSE(jsonRows(report.renderJson()).empty());

    std::error_code ec;
    fs::remove_all(root, ec);
}
