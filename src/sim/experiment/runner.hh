/**
 * @file
 * ExperimentRunner: parallel sweep execution with deterministic,
 * order-independent result assembly.
 *
 * The runner expands a scenario's sweep grid and executes the points
 * on a thread pool whose workers share one counter of the next
 * unstarted point: each free worker takes the next point in grid
 * order, so a worker stuck on one heavyweight point (e.g. a full
 * workload-suite run) never leaves the rest of the grid idle.
 *
 * Determinism: point results land in a pre-sized slot vector indexed
 * by grid position, and every point draws only from seeds split from
 * (base seed, point index) — so the assembled Report is byte-identical
 * for any job count, including jobs=1 (which runs inline, with no
 * threads at all).
 */

#ifndef SPECINT_SIM_EXPERIMENT_RUNNER_HH
#define SPECINT_SIM_EXPERIMENT_RUNNER_HH

#include <functional>

#include "sim/experiment/registry.hh"
#include "sim/experiment/report.hh"
#include "sim/experiment/scenario.hh"

namespace specint::experiment
{

/**
 * Point-level execution hooks. All default-constructed members are
 * no-ops, so `run(scenario, options)` behaves exactly as before.
 *
 * tryFetch/onExecuted bracket the executor: a result cache satisfies
 * a point without simulating via tryFetch and persists fresh results
 * via onExecuted (both may run concurrently on worker threads).
 * onOrdered streams completed points *in grid order* — the runner
 * holds back out-of-order completions — so a sink can emit CSV rows
 * as points land and still produce byte-identical output. cancelled
 * is polled between points (cooperative SIGINT/SIGTERM): once it
 * returns true no new point starts, in-flight points finish, and the
 * Report comes back with interrupted=true.
 */
struct RunHooks
{
    /** Return true (and fill the result) to satisfy the point without
     *  executing it. */
    std::function<bool(const PointContext &, PointResult &)> tryFetch;
    /** Called with every freshly executed (non-fetched) result. */
    std::function<void(const PointContext &, const PointResult &)>
        onExecuted;
    /** Called in grid order as the completion frontier advances. */
    std::function<void(std::size_t, const ReportPoint &)> onOrdered;
    /** Cooperative cancellation poll. */
    std::function<bool()> cancelled;
};

/** Executes a scenario's sweep and assembles the Report. */
class ExperimentRunner
{
  public:
    /** @param jobs worker threads; 1 = inline serial execution. */
    explicit ExperimentRunner(unsigned jobs = 1);

    /**
     * Run @p scenario under @p options with optional @p hooks.
     *
     * A point executor that throws poisons the run: the first
     * exception is rethrown on the calling thread after every worker
     * has drained (no detached threads are left behind).
     */
    Report run(const Scenario &scenario, const RunOptions &options,
               const RunHooks &hooks = {}) const;

    unsigned jobs() const { return jobs_; }

  private:
    unsigned jobs_;
};

} // namespace specint::experiment

#endif // SPECINT_SIM_EXPERIMENT_RUNNER_HH
