/**
 * @file
 * Driver implementation: flag parsing, sweep execution, emission and
 * the `specsim_bench` scenario dispatcher.
 */

#include "sim/experiment/driver.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>

#include "sim/experiment/runner.hh"
#include "sim/log.hh"
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

/** Last SIGINT/SIGTERM received (0 = none). */
volatile std::sig_atomic_t g_signal = 0;

extern "C" void
driverSignalHandler(int sig)
{
    g_signal = sig;
    // Restore the default disposition so a second ^C kills the
    // process immediately instead of re-requesting a graceful stop.
    std::signal(sig, SIG_DFL);
}

/**
 * Arm cooperative SIGINT/SIGTERM: the first signal sets a flag the
 * run loop polls (finish in-flight points, flush partial results,
 * exit 128+sig); the second one terminates. The flag is polled
 * between points, so no blocked system call has to wake for it.
 */
void
installSignalHandlers()
{
    g_signal = 0;
    struct sigaction sa = {};
    sa.sa_handler = driverSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

/**
 * Streaming CSV emitter: writes rows as completed points cross the
 * grid-order frontier, fflushing per point, so an interrupted sweep
 * leaves a valid prefix of exactly the bytes renderCsv() would have
 * produced. Opens lazily on the first point (a run that fails before
 * producing anything writes nothing); finalize() writes the header
 * even for a zero-row run so a successful stream always byte-matches
 * the buffered rendering.
 */
class CsvStreamSink
{
  public:
    ~CsvStreamSink()
    {
        if (file_ && !isStdout_)
            std::fclose(file_);
    }

    void
    arm(const std::vector<std::string> &columns,
        const std::string &path)
    {
        columns_ = &columns;
        path_ = path;
        armed_ = true;
    }

    bool armed() const { return armed_; }

    void
    emit(const ReportPoint &p)
    {
        if (!ensureOpen())
            return;
        std::string text;
        for (const Row &row : p.rows) {
            for (std::size_t i = 0; i < row.size(); ++i) {
                if (i)
                    text += ',';
                text += row[i].text();
            }
            text += '\n';
        }
        if (std::fwrite(text.data(), 1, text.size(), file_) !=
            text.size())
            failed_ = true;
        std::fflush(file_);
    }

    /**
     * Close the stream; @p force_header opens an untouched sink so a
     * completed zero-row sweep still gets its header line (false for
     * interrupted runs: a header-only file would masquerade as an
     * empty result). Returns false if any write failed.
     */
    bool
    finalize(bool force_header)
    {
        if (!armed_)
            return true;
        if (force_header)
            ensureOpen();
        if (file_ && !isStdout_) {
            std::fclose(file_);
            file_ = nullptr;
        }
        return !failed_;
    }

  private:
    bool
    ensureOpen()
    {
        if (file_)
            return true;
        if (failed_)
            return false;
        file_ = openOutStream(path_, isStdout_);
        if (!file_) {
            failed_ = true;
            return false;
        }
        std::string header;
        for (std::size_t i = 0; i < columns_->size(); ++i) {
            if (i)
                header += ',';
            header += (*columns_)[i];
        }
        header += '\n';
        if (std::fwrite(header.data(), 1, header.size(), file_) !=
            header.size())
            failed_ = true;
        return !failed_;
    }

    const std::vector<std::string> *columns_ = nullptr;
    std::string path_;
    std::FILE *file_ = nullptr;
    bool isStdout_ = false;
    bool armed_ = false;
    bool failed_ = false;
};

/**
 * Render the scenario's legacy output into a buffer and return its
 * exit code. (Scenarios render to a FILE*, so a pipe-less tmpfile is
 * the capture mechanism.) @p text may be null when only the verdict
 * is wanted. Returns 1 on I/O failure.
 */
int
renderLegacyToString(const Scenario &scenario, const Report &report,
                     const RunOptions &options, std::string *text)
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
    if (text) {
        std::fflush(tmp);
        std::rewind(tmp);
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0)
            text->append(buf, n);
    }
    std::fclose(tmp);
    return code;
}

/** Emit the report in the requested format; returns the exit code.
 *  @p csv_streamed: the CSV bytes already went out through the
 *  streaming sink, so only the verdict is computed here. */
int
emitReport(const Scenario &scenario, const Report &report,
           const RunOptions &options, bool csv_streamed)
{
    if (options.format != OutputFormat::Legacy) {
        if (!csv_streamed) {
            const std::string out =
                options.format == OutputFormat::Csv
                    ? report.renderCsv()
                    : report.renderJson();
            if (!writeOut(options.outPath, out))
                return 1;
        }
        // The scenario's verdict (shape checks, paper agreement) is
        // still the exit code: a CI job collecting CSV artifacts must
        // not mask a broken reproduction.
        return renderLegacyToString(scenario, report, options,
                                    nullptr);
    }

    if (!options.outPath.empty()) {
        std::string text;
        const int code =
            renderLegacyToString(scenario, report, options, &text);
        if (!writeOut(options.outPath, text))
            return 1;
        return code;
    }

    if (scenario.renderLegacy)
        return scenario.renderLegacy(report, options, stdout);
    std::fputs(report.renderTable().c_str(), stdout);
    return 0;
}

int
runResolved(const Scenario &scenario, const RunOptions &options)
{
    if (!options.logLevel.empty()) {
        LogLevel level;
        if (logLevelFromString(options.logLevel, level))
            setLogLevel(level); // validated at parse time
    }

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

    installSignalHandlers();

    // CSV streams point-by-point so an interrupted sweep still
    // flushes every completed row; the bytes are identical to the
    // buffered renderCsv() path.
    CsvStreamSink csv;
    if (options.format == OutputFormat::Csv)
        csv.arm(scenario.columns, options.outPath);

    RunHooks hooks;
    hooks.cancelled = [] { return g_signal != 0; };
    if (csv.armed())
        hooks.onOrdered = [&csv](std::size_t, const ReportPoint &p) {
            csv.emit(p);
        };

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
        cache->flushIndex(fingerprint);
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

    if (report.interrupted) {
        // Completed rows (CSV) and the cache index are already on
        // disk; everything else is abandoned. 128+sig mirrors what
        // the default disposition would have reported.
        csv.finalize(false);
        std::size_t done = 0;
        for (const ReportPoint &p : report.points)
            done += p.done ? 1 : 0;
        std::fprintf(stderr,
                     "[experiment] %s: interrupted after %zu/%zu "
                     "points; partial results flushed\n",
                     scenario.name.c_str(), done,
                     report.points.size());
        return 128 + static_cast<int>(g_signal);
    }

    const bool csv_ok = csv.finalize(true);
    int code = emitReport(scenario, report, options, csv.armed());
    if (!csv_ok)
        code = std::max(code, 1);
    return code != 0 ? code : obs_code;
}

} // namespace

int
runScenarioCli(const ScenarioRegistry &registry,
               const std::string &scenario_name, int argc, char **argv)
{
    initLogLevelFromEnv();
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
