/**
 * @file
 * ExperimentRunner implementation: inline serial path plus the
 * worker pool, with order-independent result assembly.
 */

#include "sim/experiment/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/obs/profile.hh"
#include "sim/obs/trace.hh"

namespace specint::experiment
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
elapsedUs(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - start)
            .count());
}

/** CPU time consumed by the calling thread, microseconds. Unlike wall
 *  time this excludes time spent descheduled, so summed point costs
 *  estimate the true serial cost even when workers oversubscribe the
 *  machine (otherwise cpu/wall would report a phantom speedup). */
std::uint64_t
threadCpuUs()
{
#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
               static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
#endif
    return elapsedUs(Clock::time_point{});
}

} // namespace

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : jobs_(jobs == 0 ? std::max(
                            1u, std::thread::hardware_concurrency())
                      : jobs)
{}

Report
ExperimentRunner::run(const Scenario &scenario,
                      const RunOptions &options,
                      const RunHooks &hooks) const
{
    const Clock::time_point expand_start = Clock::now();
    const SweepSpec spec =
        scenario.sweep ? scenario.sweep(options) : SweepSpec{};
    const std::vector<SweepPoint> points = spec.expand();
    if (options.profile) {
        obs::HostProfiler::global().add("runner.expand",
                                        elapsedUs(expand_start));
    }

    Report report;
    report.scenario = scenario.name;
    report.columns = scenario.columns;
    report.jobs = jobs_;
    report.trials = options.trials;
    report.seed = options.seed;
    report.points.resize(points.size());

    auto makeContext = [&](std::size_t i) {
        PointContext ctx;
        ctx.point = points[i];
        ctx.pointIndex = i;
        ctx.trials = options.trials;
        ctx.baseSeed = options.seed;
        ctx.pointSeed = splitSeed(options.seed, i);
        return ctx;
    };

    // Execute point i and deposit the result into its grid slot: the
    // only write is to a distinct pre-sized element, so no worker ever
    // contends with another and assembly order cannot leak into the
    // output.
    auto executePoint = [&](std::size_t i) {
        const std::uint64_t cpu_start = threadCpuUs();
        // Tag this worker's trace events with the point index so the
        // exported trace is independent of scheduling (one Perfetto
        // process per sweep point).
        obs::setTraceProcess(static_cast<std::uint32_t>(i));
        const PointContext ctx = makeContext(i);
        PointResult res;
        bool fetched = false;
        if (hooks.tryFetch)
            fetched = hooks.tryFetch(ctx, res);
        if (!fetched) {
            {
                const obs::ScopedTimer timer("runner.point");
                res = scenario.run(ctx, options);
            }
            if (hooks.onExecuted)
                hooks.onExecuted(ctx, res);
        }
        obs::setTraceProcess(0);
        ReportPoint &slot = report.points[i];
        slot.point = points[i];
        slot.rows = std::move(res.rows);
        slot.legacy = std::move(res.legacy);
        slot.durationUs = threadCpuUs() - cpu_start;
        slot.done = true;
    };

    const Clock::time_point wall_start = Clock::now();

    // Close out the run: wall time, execution-phase cost, and (for
    // profiled runs) the global phase table collected from every
    // ScopedTimer that fired — runner phases and scenario-internal
    // ones alike.
    auto finalize = [&] {
        report.wallUs = elapsedUs(wall_start);
        if (!options.profile)
            return;
        obs::HostProfiler::global().add("runner.execute",
                                        report.wallUs);
        for (const obs::PhaseTotal &p :
             obs::HostProfiler::global().phases()) {
            report.profile.push_back({p.name, p.count, p.totalUs});
        }
    };

    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        jobs_, points.empty() ? 1 : points.size()));

    if (workers <= 1) {
        for (std::size_t i = 0; i < points.size(); ++i)
            executePoint(i);
        finalize();
        return report;
    }

    // Each free worker takes the next unstarted point in grid order,
    // so one heavyweight point never holds back the rest of the grid.
    std::atomic<std::size_t> next_point{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto workerLoop = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t task = next_point++;
            if (task >= points.size())
                return; // every point started
            try {
                executePoint(task);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(workerLoop);
    for (std::thread &t : pool)
        t.join();

    if (first_error)
        std::rethrow_exception(first_error);

    finalize();
    return report;
}

} // namespace specint::experiment
