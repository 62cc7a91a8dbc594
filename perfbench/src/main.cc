/**
 * @file
 * perfbench: the simulator benchmark.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--reference FILE] [--record FILE] [--trace-out FILE]
 *             [--work-dir DIR]
 *
 * Sets the workload up repeatedly (setup_s is the median), then runs
 * passes of the workload's fixed unit list until --seconds have
 * elapsed; --seconds 0 runs the fewest passes (one, or two traced).
 * Every unit's simulated outputs are checked: at
 * the default seed against the recorded reference, at any other seed
 * against the first pass and the workload's seed-independent
 * invariants. A failed check counts a failed unit; it is not an error.
 *
 * Timings are medians over the untraced passes: wall_s of the pass
 * times, unit_ms_p50/p90 of each pass's own unit percentiles (every
 * pass has at least 112 units, so its p90 has ten beyond it).
 * sim_mcycles_per_s is "n/a" and left out of the result line for a
 * workload whose passes simulate nothing (sweep_replay).
 *
 * --trace 1 alternates untraced and traced passes: the per-layer
 * metrics come from the traced passes' spans, and the difference in
 * median pass time between the two is the tracing overhead.
 *
 * Prints one "name value unit" line per metric, then, as the last
 * line, {"correct", "attempted", "failed", "metrics"} with the
 * end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
 */

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.hh"
#include "workload.hh"

namespace perfbench
{

std::string
strf(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n < 0)
        return {};
    if (static_cast<std::size_t>(n) < sizeof(buf))
        return std::string(buf, static_cast<std::size_t>(n));
    std::string out(static_cast<std::size_t>(n) + 1, '\0');
    va_start(ap, fmt);
    std::vsnprintf(out.data(), out.size(), fmt, ap);
    va_end(ap);
    out.resize(static_cast<std::size_t>(n));
    return out;
}

namespace
{

/** Taken during static initialisation, before main(); the trace
 *  file's time origin. */
const std::int64_t g_processStartNs = nowNs();

/** Set-up repeats until kSetupBudgetS seconds of set-up have run,
 *  at least kMinSetupReps and at most kMaxSetupReps times; setup_s is
 *  the median. Short set-ups thus get many samples. */
constexpr unsigned kMinSetupReps = 5;
constexpr unsigned kMaxSetupReps = 101;
constexpr double kSetupBudgetS = 1.0;

/** The seed the reference outputs were recorded with. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Spans written to the trace file (earliest first). */
constexpr std::size_t kMaxTraceEvents = 100000;

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string record;
    std::string traceOut;
    std::string workDir = ".bench_build/perfbench-work";
};

std::uint64_t
parseUnsigned(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        die("bad value for " + flag + ": '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + flag);
        const char *v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = parseUnsigned(flag, v);
        else if (flag == "--seconds")
            o.seconds = static_cast<double>(parseUnsigned(flag, v));
        else if (flag == "--trace")
            o.trace = parseUnsigned(flag, v) != 0;
        else if (flag == "--reference")
            o.reference = v;
        else if (flag == "--record")
            o.record = v;
        else if (flag == "--trace-out")
            o.traceOut = v;
        else if (flag == "--work-dir")
            o.workDir = v;
        else
            die("unknown flag " + flag);
    }
    if (o.workload.empty())
        die("--workload is required");
    if (!o.record.empty() && o.seed != kDefaultSeed)
        die("--record needs the default seed");
    return o;
}

using RefLine = std::pair<std::string, std::string>;

std::vector<RefLine>
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read reference " + path);
    std::vector<RefLine> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos)
            die("malformed reference line in " + path + ": " + line);
        out.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
    return out;
}

/** Checks every unit and keeps the host times of the current pass. */
class Checker : public UnitSink
{
  public:
    explicit Checker(std::vector<RefLine> reference)
        : reference_(std::move(reference)),
          useReference_(!reference_.empty())
    {}

    void
    beginPass(unsigned pass)
    {
        pass_ = pass;
        index_ = 0;
        passMs_.clear();
    }

    void
    add(const UnitResult &u, std::int64_t host_ns) override
    {
        const RefLine got{u.label, u.output};
        const RefLine *want = nullptr;
        if (useReference_) {
            if (index_ < reference_.size())
                want = &reference_[index_];
        } else if (pass_ > 0 && index_ < firstPass_.size()) {
            want = &firstPass_[index_];
        }
        const bool expected = useReference_ || pass_ > 0;
        bool ok = u.invariantsOk;
        if (expected)
            ok = ok && want && *want == got;
        if (pass_ == 0)
            firstPass_.push_back(got);
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (failed_ <= 5 && !u.invariantsOk) {
                std::fprintf(stderr,
                             "perfbench: unit %llu (%s) broke the "
                             "workload's invariants: got '%s'\n",
                             static_cast<unsigned long long>(index_),
                             u.label.c_str(), u.output.c_str());
            } else if (failed_ <= 5) {
                std::fprintf(stderr,
                             "perfbench: unit %llu (%s) failed its "
                             "check: got '%s'%s%s%s\n",
                             static_cast<unsigned long long>(index_),
                             u.label.c_str(), u.output.c_str(),
                             want ? ", expected '" : "",
                             want ? want->second.c_str() : "",
                             want ? "'" : "");
            }
        }
        passMs_.push_back(static_cast<double>(host_ns) / 1e6);
        ++index_;
        ++nextId_;
    }

    std::uint64_t nextUnitId() const override { return nextId_; }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** Host ms of each unit of the current pass. */
    const std::vector<double> &passMs() const { return passMs_; }
    const std::vector<RefLine> &firstPass() const { return firstPass_; }

  private:
    std::vector<RefLine> reference_;
    bool useReference_;
    std::vector<RefLine> firstPass_;
    std::vector<double> passMs_;
    unsigned pass_ = 0;
    std::size_t index_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t nextId_ = 1;
};

/** Linear-interpolated percentile, q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Peak resident set of this process image, MB. VmHWM, not
 *  getrusage: ru_maxrss carries over the pre-exec image of the parent
 *  that forked us. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    die("cannot read VmHWM from /proc/self/status");
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "defense_suite")
        return makeDefenseSuite();
    if (o.workload == "attack_trials")
        return makeAttackTrials();
    if (o.workload == "shared_contention")
        return makeSharedContention();
    if (o.workload == "sweep_replay")
        return makeSweepReplay(o.workDir);
    die("unknown workload '" + o.workload + "'");
}

std::vector<Metric>
perLayerMetrics(const Workload &wl, const SpanSummary &passes,
                double traced_passes, const SpanSummary &setup,
                double setup_reps, double overhead_pct)
{
    const Counters c = wl.counters();
    auto count = [&c](const char *name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : it->second;
    };
    auto ms = [&](const char *span) {
        return passes.selfNs(span) / 1e6 / traced_passes;
    };
    auto calls = [&](const char *span) {
        return static_cast<double>(passes.calls(span)) / traced_passes;
    };
    auto setupMs = [&](const char *span) {
        return setup.selfNs(span) / 1e6 / setup_reps;
    };
    Counters tagged;
    wl.addTaggedMetrics(passes, traced_passes, tagged);
    auto perCycle = [&tagged](const char *name) {
        const auto it = tagged.find(name);
        return it == tagged.end() ? 0.0 : it->second;
    };
    std::uint64_t spans = 0;
    for (const auto &[name, t] : passes.byName)
        spans += t.calls;

    return {
        {"workload.generate_ms", setupMs("workload.generate"), "ms"},
        {"workload.generate_calls",
         static_cast<double>(setup.calls("workload.generate")) /
             setup_reps,
         "count"},
        {"cpu.run_ms", ms("cpu.run"), "ms"},
        {"cpu.run_calls", calls("cpu.run"), "count"},
        {"cpu.sim_cycles", count("cpu.sim_cycles"), "cycles"},
        {"cpu.retired", count("cpu.retired"), "count"},
        {"cpu.squashes", count("cpu.squashes"), "count"},
        {"cpu.retired_per_issued",
         ratio(count("cpu.retired"), count("cpu.issued")), "ratio"},
        {"cpu.ns_per_cycle.unsafe", perCycle("cpu.ns_per_cycle.unsafe"),
         "ns"},
        {"cpu.ns_per_cycle.fence_spectre",
         perCycle("cpu.ns_per_cycle.fence_spectre"), "ns"},
        {"cpu.ns_per_cycle.fence_futuristic",
         perCycle("cpu.ns_per_cycle.fence_futuristic"), "ns"},
        {"cpu.ns_per_cycle.dom", perCycle("cpu.ns_per_cycle.dom"), "ns"},
        {"cpu.ns_per_cycle.advanced",
         perCycle("cpu.ns_per_cycle.advanced"), "ns"},
        {"cpu.ns_per_cycle.invisispec",
         perCycle("cpu.ns_per_cycle.invisispec"), "ns"},
        {"memory.receiver_ms", ms("memory.receiver"), "ms"},
        {"memory.receiver_calls", calls("memory.receiver"), "count"},
        {"memory.l1d_hit_ratio",
         ratio(count("memory.l1d_hits"), count("memory.loads")), "ratio"},
        {"memory.llc_queued_ratio",
         ratio(count("memory.llc_queued"), count("memory.llc_requests")),
         "ratio"},
        {"memory.llc_queue_delay_cycles",
         count("memory.llc_queue_delay_cycles"), "cycles"},
        {"attack.fixture_ms", ms("attack.fixture"), "ms"},
        {"attack.sender_build_ms", ms("attack.sender_build"), "ms"},
        {"attack.prepare_ms", ms("attack.prepare"), "ms"},
        {"attack.trial_run_ms", ms("attack.trial_run"), "ms"},
        {"attack.cell_ms", ms("attack.cell"), "ms"},
        {"attack.trials", count("attack.trials"), "count"},
        {"attack.decoded_ratio",
         ratio(count("attack.clear_decodes"), count("attack.trials")),
         "ratio"},
        {"attack.bit_errors", count("attack.bit_errors"), "count"},
        {"smt.prepare_ms", ms("smt.prepare"), "ms"},
        {"smt.trial_run_ms", ms("smt.trial_run"), "ms"},
        {"smt.calibrate_ms", setupMs("smt.calibrate"), "ms"},
        {"smt.ns_per_cycle.port", perCycle("smt.ns_per_cycle.port"), "ns"},
        {"smt.ns_per_cycle.mshr", perCycle("smt.ns_per_cycle.mshr"), "ns"},
        {"system.prepare_ms", ms("system.prepare"), "ms"},
        {"system.trial_run_ms", ms("system.trial_run"), "ms"},
        {"system.calibrate_ms", setupMs("system.calibrate"), "ms"},
        {"system.ns_per_cycle.occupancy",
         perCycle("system.ns_per_cycle.occupancy"), "ns"},
        {"system.ns_per_cycle.eviction",
         perCycle("system.ns_per_cycle.eviction"), "ns"},
        {"experiment.run_ms", ms("experiment.run"), "ms"},
        {"experiment.points", count("experiment.points"), "count"},
        {"scenario.point_ms", setupMs("scenario.point"), "ms"},
        {"service.key_ms", ms("service.key"), "ms"},
        {"service.lookup_ms", ms("service.lookup"), "ms"},
        {"service.store_ms", setupMs("service.store"), "ms"},
        {"service.hit_ratio",
         ratio(count("service.hits"), count("service.lookups")), "ratio"},
        {"service.corrupt", count("service.corrupt"), "count"},
        {"trace.overhead_pct", overhead_pct, "%"},
        {"trace.spans", static_cast<double>(spans) / traced_passes,
         "count"},
    };
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::string out = strf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += strf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int
run(const Options &o)
{
    const bool check_reference = o.seed == kDefaultSeed && o.record.empty();
    if (check_reference && o.reference.empty())
        die("the default seed needs --reference");
    Checker checker(check_reference ? loadReference(o.reference)
                                    : std::vector<RefLine>{});
    std::unique_ptr<Workload> wl = makeWorkload(o);
    SpanRecorder &recorder = SpanRecorder::global();

    // Set-up, repeated. All but the last run on a fresh thread, so
    // per-thread pools (the attack fixtures) start empty each time, as
    // in a new process; the last one runs here and leaves the state the
    // passes use. Each is timed inside its thread, so thread spawn, join
    // and teardown are not counted.
    auto timed_setup = [&] {
        const std::int64_t t0 = nowNs();
        wl->setup(o.seed);
        return static_cast<double>(nowNs() - t0) / 1e9;
    };
    std::vector<double> setup_s;
    double setup_total_s = 0.0;
    recorder.setEnabled(o.trace);
    while (setup_s.size() + 1 < kMinSetupReps ||
           (setup_total_s < kSetupBudgetS &&
            setup_s.size() + 1 < kMaxSetupReps)) {
        double dt = 0.0;
        std::thread([&] { dt = timed_setup(); }).join();
        setup_s.push_back(dt);
        setup_total_s += dt;
    }
    setup_s.push_back(timed_setup());
    recorder.setEnabled(false);
    std::vector<SpanRecord> kept = recorder.take();
    const SpanSummary setup_spans = summarize(kept);

    // Passes. With tracing, odd passes are traced.
    const unsigned min_passes = o.trace ? 2 : 1;
    const std::int64_t measure_start = nowNs();
    std::vector<double> wall_plain, wall_traced, unit_p50, unit_p90;
    std::size_t timed_units = 0;
    SpanSummary pass_spans;
    for (unsigned pass = 0;; ++pass) {
        const bool traced = o.trace && pass % 2 == 1;
        wl->beforePass();
        checker.beginPass(pass);
        recorder.setEnabled(traced);
        const std::int64_t t0 = nowNs();
        wl->runPass(checker);
        const double dt = static_cast<double>(nowNs() - t0) / 1e9;
        recorder.setEnabled(false);
        (traced ? wall_traced : wall_plain).push_back(dt);
        if (!traced) {
            unit_p50.push_back(percentile(checker.passMs(), 0.5));
            unit_p90.push_back(percentile(checker.passMs(), 0.9));
            timed_units += checker.passMs().size();
        } else {
            std::vector<SpanRecord> spans = recorder.take();
            pass_spans.merge(summarize(spans));
            for (const SpanRecord &s : spans) {
                if (kept.size() >= kMaxTraceEvents)
                    break;
                kept.push_back(s);
            }
        }
        const double elapsed =
            static_cast<double>(nowNs() - measure_start) / 1e9;
        if (pass + 1 >= min_passes && elapsed >= o.seconds)
            break;
    }

    if (!o.record.empty()) {
        std::ofstream out(o.record);
        out << "# perfbench reference outputs: workload " << o.workload
            << ", seed " << o.seed << ", one unit per line in pass "
            << "order (label<TAB>output)\n";
        for (const RefLine &l : checker.firstPass())
            out << l.first << '\t' << l.second << '\n';
        if (!out)
            die("cannot write " + o.record);
    }

    const double wall_s = percentile(wall_plain, 0.5);
    const double failed_frac =
        ratio(static_cast<double>(checker.failed()),
              static_cast<double>(checker.attempted()));
    const bool simulates = wl->cyclesPerPass() != 0;
    std::vector<Metric> end_to_end = {
        {"wall_s", wall_s, "s"},
        {"unit_ms_p50", percentile(unit_p50, 0.5), "ms"},
        {"unit_ms_p90", percentile(unit_p90, 0.5), "ms"},
        {"setup_s", percentile(setup_s, 0.5), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"failed_frac", failed_frac, "ratio"},
    };
    if (simulates) {
        end_to_end.insert(
            end_to_end.begin() + 1,
            {"sim_mcycles_per_s",
             ratio(static_cast<double>(wl->cyclesPerPass()), wall_s) / 1e6,
             "Mcycles/s"});
    }

    std::printf("workload %s seed %llu: %zu untraced + %zu traced "
                "passes, %zu timed units, %zu set-ups\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                wall_plain.size(), wall_traced.size(), timed_units,
                setup_s.size());
    std::printf("outputs checked against %s: %llu attempted, %llu "
                "failed\n",
                check_reference ? "the recorded reference"
                                : "the first pass and invariants",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()));
    std::printf("untraced pass seconds: min %.6g, quartiles %.6g %.6g "
                "%.6g, max %.6g\n",
                percentile(wall_plain, 0.0), percentile(wall_plain, 0.25),
                percentile(wall_plain, 0.5), percentile(wall_plain, 0.75),
                percentile(wall_plain, 1.0));
    std::printf("set-up seconds: min %.6g, quartiles %.6g %.6g %.6g, "
                "max %.6g\n",
                percentile(setup_s, 0.0), percentile(setup_s, 0.25),
                percentile(setup_s, 0.5), percentile(setup_s, 0.75),
                percentile(setup_s, 1.0));
    for (const Metric &m : end_to_end)
        std::printf("%-34s %.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!simulates)
        std::printf("%-34s n/a Mcycles/s\n", "sim_mcycles_per_s");

    std::vector<Metric> per_layer;
    if (o.trace) {
        const double traced_wall = percentile(wall_traced, 0.5);
        const double overhead_pct =
            100.0 * (ratio(traced_wall, wall_s) - 1.0);
        per_layer = perLayerMetrics(
            *wl, pass_spans, static_cast<double>(wall_traced.size()),
            setup_spans, static_cast<double>(setup_s.size()),
            overhead_pct);
        std::printf("traced wall_s %.10g s (tracing overhead %.2f%%); "
                    "per-layer _ms are self time per pass\n",
                    traced_wall, overhead_pct);
        for (const Metric &m : per_layer)
            std::printf("%-34s %.10g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        if (!o.traceOut.empty()) {
            if (!writeChromeTrace(o.traceOut, kept,
                                  "perfbench " + o.workload,
                                  g_processStartNs, kMaxTraceEvents))
                die("cannot write trace " + o.traceOut);
            std::printf("trace written to %s (%zu spans)\n",
                        o.traceOut.c_str(), kept.size());
        }
    }

    printJson(checker.failed() == 0, checker.attempted(), checker.failed(),
              o.trace ? per_layer : end_to_end);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
