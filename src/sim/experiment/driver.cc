/**
 * @file
 * Driver implementation: flag parsing, sweep execution, emission and
 * the `specsim_bench` scenario dispatcher.
 */

#include "sim/experiment/driver.hh"

#include <cstdio>
#include <memory>

#include "sim/experiment/runner.hh"
#include "sim/obs/metrics.hh"
#include "sim/obs/profile.hh"
#include "sim/obs/trace.hh"
#include "sim/service/cache.hh"
#include "sim/service/fingerprint.hh"
#include "sim/stats.hh"

namespace specint::experiment
{

namespace
{

/**
 * Render the scenario's legacy output into @p text and return its exit
 * code. (Scenarios render to a FILE*, so a pipe-less tmpfile is the
 * capture mechanism.) Returns 1 on I/O failure.
 */
int
renderLegacyToString(const Scenario &scenario, const Report &report,
                     const RunOptions &options, std::string &text)
{
    std::FILE *tmp = std::tmpfile();
    if (!tmp) {
        std::fprintf(stderr, "error: tmpfile failed\n");
        return 1;
    }
    const int code =
        scenario.renderLegacy
            ? scenario.renderLegacy(report, options, tmp)
            : (std::fputs(report.renderTable().c_str(), tmp), 0);
    std::fflush(tmp);
    std::rewind(tmp);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0)
        text.append(buf, n);
    std::fclose(tmp);
    return code;
}

/**
 * Emit the report in the requested format; returns the exit code. The
 * legacy text is rendered in every format because the scenario's
 * verdict (shape checks, paper agreement) is the exit code: a CI job
 * collecting CSV artifacts must not mask a broken reproduction.
 */
int
emitReport(const Scenario &scenario, const Report &report,
           const RunOptions &options)
{
    std::string legacy;
    const int code =
        renderLegacyToString(scenario, report, options, legacy);
    const std::string out =
        options.format == OutputFormat::Csv    ? report.renderCsv()
        : options.format == OutputFormat::Json ? report.renderJson()
                                               : legacy;
    if (!writeOut(options.outPath, out))
        return 1;
    return code;
}

int
runResolved(const Scenario &scenario, const RunOptions &options)
{
    // Arm the opt-in observability sinks before any point executes.
    // Each starts from a clean slate so one CLI run exports exactly
    // its own events/metrics/phases.
    const bool want_metrics = !options.metricsOut.empty();
    const bool want_trace = !options.traceOut.empty();
    if (want_metrics) {
        obs::MetricRegistry::global().clear();
        obs::setMetricsEnabled(true);
    }
    if (want_trace) {
        obs::EventTracer::global().clear();
        obs::EventTracer::global().setEnabled(true);
    }
    if (options.profile) {
        obs::HostProfiler::global().clear();
        obs::setProfilingEnabled(true);
    }

    const char *fingerprint = service::buildFingerprint();
    std::unique_ptr<service::ResultCache> cache;
    if (!options.cacheDir.empty()) {
        if (!scenario.cacheable) {
            std::fprintf(stderr,
                         "[cache] scenario '%s' measures host time; "
                         "--cache-dir ignored\n",
                         scenario.name.c_str());
        } else {
            cache = std::make_unique<service::ResultCache>(
                options.cacheDir);
        }
    }
    RunHooks hooks;
    if (cache && cache->enabled()) {
        const service::JobSpec spec =
            service::JobSpec::fromOptions(scenario.name, options);
        hooks.tryFetch = [&cache, spec, fingerprint](
                             const PointContext &ctx,
                             PointResult &result) {
            return cache->lookup(
                service::makeCacheKey(spec, ctx.pointIndex,
                                      ctx.pointSeed, ctx.point,
                                      fingerprint),
                result.rows, result.legacy);
        };
        hooks.onExecuted = [&cache, spec, fingerprint](
                               const PointContext &ctx,
                               const PointResult &result) {
            cache->store(service::makeCacheKey(spec, ctx.pointIndex,
                                               ctx.pointSeed, ctx.point,
                                               fingerprint),
                         result.rows, result.legacy);
        };
    }

    const ExperimentRunner runner(options.jobs);
    Report report = runner.run(scenario, options, hooks);

    if (cache) {
        const service::CacheStats cs = cache->stats();
        report.cacheEnabled = true;
        report.cacheHits = cs.hits;
        report.cacheMisses = cs.misses;
        std::fprintf(stderr,
                     "[cache] dir=%s hits=%llu misses=%llu stores=%llu "
                     "corrupt=%llu\n",
                     cache->dir().c_str(),
                     static_cast<unsigned long long>(cs.hits),
                     static_cast<unsigned long long>(cs.misses),
                     static_cast<unsigned long long>(cs.stores),
                     static_cast<unsigned long long>(cs.corrupt));
    }

    int obs_code = 0;
    if (want_metrics) {
        obs::setMetricsEnabled(false);
        if (!writeOut(options.metricsOut,
                      obs::MetricRegistry::global()
                          .snapshot()
                          .renderJson())) {
            obs_code = 1;
        }
    }
    if (want_trace) {
        obs::EventTracer::global().setEnabled(false);
        const std::uint64_t dropped =
            obs::EventTracer::global().dropped();
        if (dropped > 0) {
            std::fprintf(stderr,
                         "[trace] ring overflow: %llu oldest events "
                         "dropped\n",
                         static_cast<unsigned long long>(dropped));
        }
        if (!writeOut(options.traceOut,
                      obs::EventTracer::global().renderJson())) {
            obs_code = 1;
        }
    }
    if (options.profile) {
        obs::setProfilingEnabled(false);
        // Stderr: machine-readable stdout stays clean, like the
        // sweep accounting below.
        std::fputs(report.renderProfile().c_str(), stderr);
    }

    if (report.jobs > 1) {
        // Sweep accounting goes to stderr so machine-readable stdout
        // stays clean. cpu = summed point time ~ the serial cost.
        const double wall_ms =
            static_cast<double>(report.wallUs) / 1000.0;
        const double cpu_ms =
            static_cast<double>(report.cpuUs()) / 1000.0;
        std::fprintf(stderr,
                     "[experiment] %s: %zu points on %u jobs, wall "
                     "%.1f ms, cpu %.1f ms, speedup %.2fx\n",
                     scenario.name.c_str(), report.points.size(),
                     report.jobs, wall_ms, cpu_ms,
                     wall_ms > 0.0 ? cpu_ms / wall_ms : 0.0);
    }

    const int code = emitReport(scenario, report, options);
    return code != 0 ? code : obs_code;
}

} // namespace

int
runScenarioCli(const ScenarioRegistry &registry,
               const std::string &scenario_name, int argc, char **argv)
{
    const Scenario *scenario = registry.find(scenario_name);
    if (!scenario) {
        std::fprintf(stderr, "error: unknown scenario '%s'\n",
                     scenario_name.c_str());
        return 2;
    }

    const CliArgs cli(argv && argc > 0 ? argv[0] : scenario_name,
                      scenario->defaultTrials, scenario->defaultSeed,
                      scenario->extraFlags);
    const CliParse parse = cli.parse(argc, argv);
    if (!parse.ok) {
        std::fprintf(stderr, "error: %s\n%s", parse.error.c_str(),
                     cli.usage().c_str());
        return 2;
    }
    if (parse.helpRequested) {
        std::printf("%s — %s%s%s\n%s  --trials here: %s\n",
                    scenario->name.c_str(),
                    scenario->description.c_str(),
                    scenario->paperRef.empty() ? "" : " [",
                    scenario->paperRef.empty()
                        ? ""
                        : (scenario->paperRef + "]").c_str(),
                    cli.usage().c_str(),
                    scenario->trialsMeaning.c_str());
        return 0;
    }

    return runResolved(*scenario, parse.options);
}

int
experimentMain(const ScenarioRegistry &registry, int argc, char **argv)
{
    const char *prog = argc > 0 ? argv[0] : "specsim_bench";
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <scenario> [flags...] | --list\n"
                     "run '%s --list' to see the registered "
                     "scenarios\n",
                     prog, prog);
        return 2;
    }

    const std::string first = argv[1];
    if (first == "--list" || first == "list") {
        TextTable table({"scenario", "paper", "points", "description"});
        for (const std::string &name : registry.names()) {
            const Scenario *sc = registry.find(name);
            RunOptions defaults;
            defaults.trials = sc->defaultTrials;
            defaults.seed = sc->defaultSeed;
            for (const ExtraFlag &f : sc->extraFlags)
                defaults.extra[f.name] = f.defaultValue;
            const std::size_t n =
                sc->sweep ? sc->sweep(defaults).size() : 1;
            table.addRow({name, sc->paperRef, std::to_string(n),
                          sc->description});
        }
        std::printf("%s", table.render().c_str());
        return 0;
    }
    if (first == "--help" || first == "-h") {
        std::printf("usage: %s <scenario> [flags...] | --list\n"
                    "per-scenario flags: %s <scenario> --help\n",
                    prog, prog);
        return 0;
    }

    // Shift argv so the scenario's parser sees its own flags only.
    return runScenarioCli(registry, first, argc - 1, argv + 1);
}

} // namespace specint::experiment
