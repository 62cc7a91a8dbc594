/**
 * @file
 * Observability layer tests: metric registry semantics (path
 * uniqueness, kind conflicts, snapshots), event tracer ring and
 * rendering (schema shape, determinism across --jobs), host profiler,
 * and the off-by-default guarantees (no events, no metrics, no
 * perturbation of simulation results).
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cpu/core.hh"
#include "cpu/pipeline/engine.hh"
#include "memory/hierarchy.hh"
#include "sim/experiment/report.hh"
#include "sim/experiment/runner.hh"
#include "sim/obs/metrics.hh"
#include "sim/obs/profile.hh"
#include "sim/obs/trace.hh"

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

TEST_F(ObservabilityTest, KindConflictThrows)
{
    obs::MetricRegistry reg;
    reg.counterAdd("core0.retired", 2);
    reg.sampleAdd("llc.occupancy", 3.0);
    EXPECT_THROW(reg.sampleAdd("core0.retired", 1.0), std::logic_error);
    EXPECT_THROW(reg.counterAdd("llc.occupancy"), std::logic_error);
    // The original registrations are untouched by the failed mutations.
    const obs::MetricsSnapshot snap = reg.snapshot();
    const obs::MetricSample *counter = snap.find("core0.retired");
    const obs::MetricSample *dist = snap.find("llc.occupancy");
    ASSERT_NE(counter, nullptr);
    ASSERT_NE(dist, nullptr);
    EXPECT_EQ(counter->kind, obs::MetricKind::Counter);
    EXPECT_EQ(counter->count, 2u);
    EXPECT_EQ(dist->kind, obs::MetricKind::Distribution);
    EXPECT_EQ(dist->count, 1u);
}

TEST_F(ObservabilityTest, SnapshotSortedAndComplete)
{
    obs::MetricRegistry reg;
    reg.sampleAdd("c.dist", 1.0);
    reg.counterAdd("b.counter", 7);
    reg.sampleAdd("c.dist", 3.0);

    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.entries.size(), 2u);
    EXPECT_EQ(snap.entries[0].path, "b.counter");
    EXPECT_EQ(snap.entries[1].path, "c.dist");
    EXPECT_EQ(snap.entries[0].count, 7u);
    EXPECT_EQ(snap.entries[1].count, 2u);
    EXPECT_DOUBLE_EQ(snap.entries[1].mean, 2.0);
    EXPECT_DOUBLE_EQ(snap.entries[1].min, 1.0);
    EXPECT_DOUBLE_EQ(snap.entries[1].max, 3.0);
    EXPECT_EQ(snap.find("nope"), nullptr);
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

TEST_F(ObservabilityTest, FullRingKeepsTheSameEventsInAnyArrivalOrder)
{
    // Two sweep points emit 24 events into a ring that holds 8. The
    // survivors, and so the JSON, must be those of a serial run
    // whichever worker thread emits first.
    auto feed = [](obs::EventTracer &tracer, std::uint32_t pid) {
        obs::setTraceProcess(pid);
        const std::uint32_t t = tracer.track("t" + std::to_string(pid));
        for (std::uint64_t i = 0; i < 12; ++i)
            tracer.instant(t, "e", "c", i, "i", i);
        obs::setTraceProcess(0);
    };
    auto render = [](const std::function<void(obs::EventTracer &)> &run) {
        obs::EventTracer tracer(/*capacity=*/8);
        tracer.setEnabled(true);
        run(tracer);
        EXPECT_EQ(tracer.size(), 8u);
        EXPECT_EQ(tracer.dropped(), 16u);
        return tracer.renderJson();
    };

    const std::string serial = render([&](obs::EventTracer &tracer) {
        feed(tracer, 1);
        feed(tracer, 2);
    });
    EXPECT_NE(serial.find("\"pid\":2"), std::string::npos);
    EXPECT_EQ(serial.find("\"pid\":1"), std::string::npos);
    // Point 2's worker finishes before point 1's starts.
    EXPECT_EQ(render([&](obs::EventTracer &tracer) {
                  std::thread(feed, std::ref(tracer), 2).join();
                  std::thread(feed, std::ref(tracer), 1).join();
              }),
              serial);
    // Both workers at once.
    EXPECT_EQ(render([&](obs::EventTracer &tracer) {
                  std::thread a(feed, std::ref(tracer), 1);
                  std::thread b(feed, std::ref(tracer), 2);
                  a.join();
                  b.join();
              }),
              serial);
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

    // The per-thread keys are exactly docs/observability.md's list: a
    // counter that nothing reads is not published.
    const std::string thread_prefix = "core0.t0.";
    std::vector<std::string> thread_keys;
    for (const obs::MetricSample &m : snap.entries) {
        if (m.path.compare(0, thread_prefix.size(), thread_prefix) == 0)
            thread_keys.push_back(m.path.substr(thread_prefix.size()));
    }
    const std::vector<std::string> documented = {
        "branches",     "fetch_grants", "issued",  "load_l1_hits",
        "loads",        "mispredicts",  "retired", "squashes"};
    EXPECT_EQ(thread_keys, documented); // snapshot entries sort by path
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
        PipelineEngine core(tinyCoreConfig(), SmtConfig{}, 0, hier, mem);
        const Program prog = tinyProgram();
        core.run({&prog, &prog});
    }
    expect_skipped("two-thread engine");
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

} // namespace
} // namespace specint
