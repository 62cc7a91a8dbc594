/**
 * @file
 * Observability layer tests: metric registry semantics (path
 * uniqueness, kind conflicts, snapshot/diff), event tracer ring and
 * rendering (schema shape, determinism across --jobs), host profiler,
 * log-level parsing, and the off-by-default guarantees (no events, no
 * metrics, no perturbation of simulation results).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cpu/core.hh"
#include "memory/hierarchy.hh"
#include "sim/experiment/report.hh"
#include "sim/experiment/runner.hh"
#include "sim/log.hh"
#include "sim/obs/metrics.hh"
#include "sim/obs/profile.hh"
#include "sim/obs/trace.hh"
#include "smt/smt_core.hh"

namespace specint
{
namespace
{

using experiment::ExperimentRunner;
using experiment::PointContext;
using experiment::PointResult;
using experiment::Report;
using experiment::RunOptions;
using experiment::Scenario;
using experiment::SweepSpec;

/** Every test leaves the global observability switches off and the
 *  global sinks empty, so suites cannot perturb each other. */
class ObservabilityTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        obs::setMetricsEnabled(false);
        obs::EventTracer::global().setEnabled(false);
        obs::setProfilingEnabled(false);
        obs::MetricRegistry::global().clear();
        obs::EventTracer::global().clear();
        obs::HostProfiler::global().clear();
        obs::setTraceProcess(0);
    }
};

// ---------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------

TEST_F(ObservabilityTest, DeclareIsIdempotentPerKind)
{
    obs::MetricRegistry reg;
    EXPECT_TRUE(reg.declare("core0.retired", obs::MetricKind::Counter));
    EXPECT_FALSE(reg.declare("core0.retired", obs::MetricKind::Counter));
    EXPECT_EQ(reg.size(), 1u);
}

TEST_F(ObservabilityTest, KindConflictThrows)
{
    obs::MetricRegistry reg;
    reg.declare("llc.occupancy", obs::MetricKind::Distribution);
    EXPECT_THROW(reg.counterAdd("llc.occupancy"), std::logic_error);
    EXPECT_THROW(reg.gaugeSet("llc.occupancy", 1.0), std::logic_error);
    EXPECT_THROW(reg.declare("llc.occupancy", obs::MetricKind::Gauge),
                 std::logic_error);
    // The original registration is untouched by the failed mutations.
    reg.sampleAdd("llc.occupancy", 3.0);
    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_NE(snap.find("llc.occupancy"), nullptr);
    EXPECT_EQ(snap.find("llc.occupancy")->count, 1u);
}

TEST_F(ObservabilityTest, SnapshotSortedAndComplete)
{
    obs::MetricRegistry reg;
    reg.counterAdd("b.counter", 7);
    reg.gaugeSet("a.gauge", 2.5);
    reg.sampleAdd("c.dist", 1.0);
    reg.sampleAdd("c.dist", 3.0);

    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.entries.size(), 3u);
    EXPECT_EQ(snap.entries[0].path, "a.gauge");
    EXPECT_EQ(snap.entries[1].path, "b.counter");
    EXPECT_EQ(snap.entries[2].path, "c.dist");
    EXPECT_DOUBLE_EQ(snap.entries[0].value, 2.5);
    EXPECT_EQ(snap.entries[1].count, 7u);
    EXPECT_EQ(snap.entries[2].count, 2u);
    EXPECT_DOUBLE_EQ(snap.entries[2].mean, 2.0);
    EXPECT_DOUBLE_EQ(snap.entries[2].min, 1.0);
    EXPECT_DOUBLE_EQ(snap.entries[2].max, 3.0);
    EXPECT_EQ(snap.find("nope"), nullptr);
}

TEST_F(ObservabilityTest, SnapshotDiffReportsChangesOnly)
{
    obs::MetricRegistry reg;
    reg.counterAdd("stable", 5);
    reg.counterAdd("grows", 1);
    const obs::MetricsSnapshot before = reg.snapshot();

    reg.counterAdd("grows", 3);
    reg.counterAdd("fresh", 2);
    const obs::MetricsSnapshot after = reg.snapshot();

    const auto deltas = obs::MetricsSnapshot::diff(before, after);
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_EQ(deltas[0].path, "fresh");
    EXPECT_TRUE(deltas[0].added);
    EXPECT_DOUBLE_EQ(deltas[0].delta, 2.0);
    EXPECT_EQ(deltas[1].path, "grows");
    EXPECT_FALSE(deltas[1].added);
    EXPECT_DOUBLE_EQ(deltas[1].delta, 3.0);
}

TEST_F(ObservabilityTest, RenderersIncludeEveryPath)
{
    obs::MetricRegistry reg;
    reg.counterAdd("x.count", 4);
    reg.sampleAdd("y.dist", 2.0);
    const obs::MetricsSnapshot snap = reg.snapshot();

    const std::string json = snap.renderJson();
    EXPECT_NE(json.find("\"x.count\""), std::string::npos);
    EXPECT_NE(json.find("\"y.dist\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);

    const std::string csv = snap.renderCsv();
    EXPECT_EQ(csv.find("path,kind,count"), 0u);
    EXPECT_NE(csv.find("x.count,counter,4"), std::string::npos);
}

// ---------------------------------------------------------------------
// EventTracer
// ---------------------------------------------------------------------

TEST_F(ObservabilityTest, DisabledTracerRecordsNothing)
{
    obs::EventTracer tracer;
    const std::uint32_t t = tracer.track("core0.t0");
    tracer.complete(t, "inst", "pipeline", 0, 5);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.emitted(), 0u);
}

TEST_F(ObservabilityTest, RingOverwritesOldestAndCounts)
{
    obs::EventTracer tracer(/*capacity=*/4);
    tracer.setEnabled(true);
    const std::uint32_t t = tracer.track("a");
    for (std::uint64_t i = 0; i < 6; ++i)
        tracer.instant(t, "e", "c", i);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 2u);
    EXPECT_EQ(tracer.emitted(), 6u);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first: timestamps 2..5 survive.
    EXPECT_EQ(events.front().ts, 2u);
    EXPECT_EQ(events.back().ts, 5u);
}

TEST_F(ObservabilityTest, RenderJsonHasTraceEventSchema)
{
    obs::EventTracer tracer;
    tracer.setEnabled(true);
    const std::uint32_t t0 = tracer.track("core0.t0");
    const std::uint32_t t1 = tracer.track("core0.mem");
    tracer.complete(t0, "inst", "pipeline", 10, 3, "pc", 7);
    tracer.instant(t1, "squash", "pipeline", 12, "seq", 9);

    const std::string json = tracer.renderJson();
    EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
    // Metadata records name the process and both tracks.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("core0.t0"), std::string::npos);
    EXPECT_NE(json.find("core0.mem"), std::string::npos);
    // Event records carry phase, timestamp and args; instants scope.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":3"), std::string::npos);
    EXPECT_NE(json.find("\"pc\":7"), std::string::npos);
}

/** A scenario whose points emit synthetic trace events and metrics:
 *  determinism across worker counts is a property of the obs layer,
 *  not of any particular simulation. */
Scenario
syntheticObsScenario()
{
    Scenario sc;
    sc.name = "obs-synthetic";
    sc.columns = {"point"};
    sc.sweep = [](const RunOptions &) {
        return SweepSpec().axis(
            "p", {"0", "1", "2", "3", "4", "5", "6", "7"});
    };
    sc.run = [](const PointContext &ctx, const RunOptions &) {
        obs::EventTracer &tracer = obs::EventTracer::global();
        // Same track names from every point: interning order is racy
        // across workers, which is exactly what rendering must hide.
        const std::uint32_t trk =
            tracer.track("t" + std::to_string(ctx.pointIndex % 3));
        for (unsigned i = 0; i < 5; ++i) {
            tracer.complete(trk, "work", "synthetic",
                            10 * i + ctx.pointIndex, 4, "i", i);
        }
        obs::MetricRegistry::global().counterAdd(
            "synthetic.events", 5);
        obs::MetricRegistry::global().sampleAdd(
            "synthetic.point", static_cast<double>(ctx.pointIndex));
        PointResult res;
        res.rows.push_back({experiment::Value::str(ctx.point.at("p"))});
        return res;
    };
    return sc;
}

TEST_F(ObservabilityTest, TraceAndMetricsDeterministicAcrossJobs)
{
    const Scenario sc = syntheticObsScenario();

    auto render = [&](unsigned jobs) {
        obs::MetricRegistry::global().clear();
        obs::EventTracer::global().clear();
        obs::setMetricsEnabled(true);
        obs::EventTracer::global().setEnabled(true);
        RunOptions options;
        options.jobs = jobs;
        const ExperimentRunner runner(jobs);
        (void)runner.run(sc, options);
        obs::EventTracer::global().setEnabled(false);
        obs::setMetricsEnabled(false);
        return std::make_pair(
            obs::EventTracer::global().renderJson(),
            obs::MetricRegistry::global().snapshot().renderJson());
    };

    const auto serial = render(1);
    const auto parallel = render(4);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
}

// ---------------------------------------------------------------------
// Simulation auto-publication
// ---------------------------------------------------------------------

CoreConfig
tinyCoreConfig()
{
    CoreConfig cfg;
    cfg.maxCycles = 200000;
    return cfg;
}

Program
tinyProgram()
{
    Program p;
    p.movi(1, 5);
    p.alu(2, 1, 1, 2);
    p.load(3, kNoReg, 0x1000);
    p.halt();
    return p;
}

TEST_F(ObservabilityTest, CoreRunPublishesMetricsWhenEnabled)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(tinyCoreConfig(), 0, hier, mem);

    obs::MetricRegistry::global().clear();
    obs::setMetricsEnabled(true);
    core.run(tinyProgram());
    obs::setMetricsEnabled(false);

    const obs::MetricsSnapshot snap =
        obs::MetricRegistry::global().snapshot();
    const obs::MetricSample *retired = snap.find("core0.t0.retired");
    ASSERT_NE(retired, nullptr);
    EXPECT_GE(retired->count, 4u);
    EXPECT_NE(snap.find("core0.pipeline.cycles"), nullptr);
    EXPECT_NE(snap.find("core0.t0.loads"), nullptr);
    EXPECT_NE(snap.find("llc.visible_accesses"), nullptr);
}

TEST_F(ObservabilityTest, CoreRunEmitsTraceEventsWhenEnabled)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(tinyCoreConfig(), 0, hier, mem);

    obs::EventTracer::global().clear();
    obs::EventTracer::global().setEnabled(true);
    core.run(tinyProgram());
    obs::EventTracer::global().setEnabled(false);

    const std::string json = obs::EventTracer::global().renderJson();
    EXPECT_GT(obs::EventTracer::global().size(), 0u);
    EXPECT_NE(json.find("core0.t0"), std::string::npos);
    EXPECT_NE(json.find("core0.mem"), std::string::npos);
    EXPECT_NE(json.find("\"inst\""), std::string::npos);
}

TEST_F(ObservabilityTest, FastForwardEfficacyPublished)
{
    auto counter = [](const char *path) {
        const obs::MetricsSnapshot snap =
            obs::MetricRegistry::global().snapshot();
        const obs::MetricSample *m = snap.find(path);
        EXPECT_NE(m, nullptr) << path;
        return m ? m->count : ~std::uint64_t{0};
    };
    auto expect_skipped = [&counter](const char *what) {
        SCOPED_TRACE(what);
        EXPECT_GT(counter("core0.ff.skipped_cycles"), 0u);
        EXPECT_GT(counter("core0.ff.skips"), 0u);
        EXPECT_LE(counter("core0.ff.skips"), counter("core0.ff.probes"));
        // Every probe either skipped or was blocked by exactly one
        // stage gate of nextTransitionAt().
        std::uint64_t blocked = 0;
        for (const char *gate :
             {"retire", "writeback", "safety", "issue", "dispatch", "fetch"})
            blocked +=
                counter((std::string("core0.ff.blocked.") + gate).c_str());
        EXPECT_GT(blocked, 0u);
        EXPECT_EQ(blocked,
                  counter("core0.ff.probes") - counter("core0.ff.skips"));
    };
    obs::setMetricsEnabled(true);

    // The cold load misses to memory and stalls the whole window: the
    // run skips those cycles.
    obs::MetricRegistry::global().clear();
    {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        Core core(tinyCoreConfig(), 0, hier, mem);
        core.run(tinyProgram());
    }
    expect_skipped("Core");

    // A two-thread run skips as well: the sibling-occupancy integrals
    // are accounted arithmetically over each skipped span.
    obs::MetricRegistry::global().clear();
    {
        Hierarchy hier(HierarchyConfig::small());
        MainMemory mem;
        SmtCore core(tinyCoreConfig(), SmtConfig{}, 0, hier, mem);
        const Program prog = tinyProgram();
        core.run({&prog, &prog});
    }
    expect_skipped("two-thread SmtCore");
    obs::setMetricsEnabled(false);
}

TEST_F(ObservabilityTest, ObservabilityOffLeavesSinksEmpty)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(tinyCoreConfig(), 0, hier, mem);

    obs::MetricRegistry::global().clear();
    obs::EventTracer::global().clear();
    const CoreStats stats = core.run(tinyProgram());
    EXPECT_TRUE(stats.finished);
    EXPECT_EQ(obs::MetricRegistry::global().size(), 0u);
    EXPECT_EQ(obs::EventTracer::global().size(), 0u);
}

TEST_F(ObservabilityTest, MetricsAccumulateAcrossRunsWithoutDoubleCount)
{
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    Core core(tinyCoreConfig(), 0, hier, mem);

    obs::MetricRegistry::global().clear();
    obs::setMetricsEnabled(true);
    core.run(tinyProgram());
    const obs::MetricsSnapshot first =
        obs::MetricRegistry::global().snapshot();
    core.run(tinyProgram());
    const obs::MetricsSnapshot second =
        obs::MetricRegistry::global().snapshot();
    obs::setMetricsEnabled(false);

    // Hierarchy-side counters are cumulative on the Hierarchy object:
    // delta publication must add each access once, never re-add the
    // running total. The second (warm-cache) run reaches the LLC at
    // most as often as the cold one, so a re-add of the cumulative
    // count would at least double the metric.
    const obs::MetricSample *llc1 = first.find("llc.visible_accesses");
    const obs::MetricSample *llc2 = second.find("llc.visible_accesses");
    ASSERT_NE(llc1, nullptr);
    ASSERT_NE(llc2, nullptr);
    EXPECT_GT(llc1->count, 0u);
    EXPECT_GE(llc2->count, llc1->count);
    EXPECT_LT(llc2->count, 2 * llc1->count);

    // ThreadStats reset every run: identical runs add identical deltas.
    const obs::MetricSample *ret1 = first.find("core0.t0.retired");
    const obs::MetricSample *ret2 = second.find("core0.t0.retired");
    ASSERT_NE(ret1, nullptr);
    ASSERT_NE(ret2, nullptr);
    EXPECT_EQ(ret2->count, 2 * ret1->count);

    // Cleared-trace runs (what trial harnesses do before every trial):
    // flush every line the trace saw so each run starts cold, clear
    // the trace, run. Each run must publish exactly the accesses it
    // appended, not its size minus a stale pre-clear baseline.
    obs::setMetricsEnabled(true);
    std::uint64_t published = llc2->count;
    for (int run = 0; run < 2; ++run) {
        for (const VisibleAccess &a : hier.llcTrace())
            hier.flushLine(a.lineAddr);
        hier.clearLlcTrace();
        core.run(tinyProgram());
        const std::uint64_t appended = hier.llcTrace().size();
        EXPECT_GT(appended, 0u) << "run " << run;
        const obs::MetricsSnapshot snap =
            obs::MetricRegistry::global().snapshot();
        const std::uint64_t now = snap.find("llc.visible_accesses")->count;
        EXPECT_EQ(now - published, appended) << "run " << run;
        published = now;
    }
}

// ---------------------------------------------------------------------
// HostProfiler
// ---------------------------------------------------------------------

TEST_F(ObservabilityTest, ScopedTimerOnlyRecordsWhenEnabled)
{
    obs::HostProfiler::global().clear();
    {
        const obs::ScopedTimer timer("off.phase");
    }
    EXPECT_TRUE(obs::HostProfiler::global().phases().empty());

    obs::setProfilingEnabled(true);
    {
        const obs::ScopedTimer timer("on.phase");
    }
    {
        const obs::ScopedTimer timer("on.phase");
    }
    obs::setProfilingEnabled(false);

    const auto phases = obs::HostProfiler::global().phases();
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].name, "on.phase");
    EXPECT_EQ(phases[0].count, 2u);
}

TEST_F(ObservabilityTest, ReportProfileRendering)
{
    Report report;
    report.scenario = "demo";
    EXPECT_EQ(report.renderProfile(), "");
    EXPECT_EQ(report.renderJson().find("\"profile\""),
              std::string::npos);

    report.profile.push_back({"phase.a", 2, 1500});
    const std::string text = report.renderProfile();
    EXPECT_NE(text.find("[profile] demo"), std::string::npos);
    EXPECT_NE(text.find("phase.a"), std::string::npos);
    EXPECT_NE(report.renderJson().find("\"profile\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Log level plumbing
// ---------------------------------------------------------------------

TEST_F(ObservabilityTest, LogLevelParsing)
{
    LogLevel level = LogLevel::Silent;
    EXPECT_TRUE(logLevelFromString("debug", level));
    EXPECT_EQ(level, LogLevel::Debug);
    EXPECT_TRUE(logLevelFromString("0", level));
    EXPECT_EQ(level, LogLevel::Silent);
    EXPECT_TRUE(logLevelFromString("4", level));
    EXPECT_EQ(level, LogLevel::Trace);
    EXPECT_FALSE(logLevelFromString("loud", level));
    EXPECT_FALSE(logLevelFromString("", level));
    EXPECT_FALSE(logLevelFromString("5", level));
    EXPECT_EQ(level, LogLevel::Trace); // untouched on failure
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
}

} // namespace
} // namespace specint
