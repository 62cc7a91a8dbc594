/**
 * @file
 * The Scenario abstraction: a named, declaratively swept experiment.
 *
 * A scenario declares a sweep grid (SweepSpec), a column list, and a
 * pure point executor `run(PointContext) -> PointResult`. The runner
 * expands the grid, executes the points (possibly in parallel) and
 * assembles the results back in grid order, so output is byte-
 * identical no matter how many workers ran the sweep.
 *
 * Seeding discipline: every point gets a splittable seed derived from
 * (base seed, point index) via SplitMix64, and PointContext::trialSeed
 * splits further per trial. Points must draw ONLY from seeds derived
 * through the context (or from constants), never from shared mutable
 * state — that is what makes them safe to execute on any worker in
 * any order.
 *
 * Legacy rendering: each point may also return a `legacy` text
 * fragment (the exact bytes the pre-refactor bench printed for that
 * point). The scenario's renderLegacy callback stitches fragments and
 * computes footers/exit codes from the typed rows, which is how the
 * refactored drivers keep their default output byte-identical.
 */

#ifndef SPECINT_SIM_EXPERIMENT_SCENARIO_HH
#define SPECINT_SIM_EXPERIMENT_SCENARIO_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment/cli.hh"
#include "sim/experiment/sweep.hh"
#include "sim/experiment/value.hh"

namespace specint::experiment
{

struct Report;

/** SplitMix64-derived child seed: deterministic, well-mixed, and
 *  independent of every other (base, index) pair. */
std::uint64_t splitSeed(std::uint64_t base, std::uint64_t index);

/** Everything a point executor may depend on. */
struct PointContext
{
    SweepPoint point;
    /** Index of this point in grid (expand()) order. */
    std::size_t pointIndex = 0;
    /** Trials requested for every point (scenario-defined meaning). */
    unsigned trials = 1;
    /** Base seed the whole run was started with. */
    std::uint64_t baseSeed = 0;
    /** This point's split seed. */
    std::uint64_t pointSeed = 0;

    /** Per-trial seed split from this point's seed. */
    std::uint64_t trialSeed(unsigned trial) const
    {
        return splitSeed(pointSeed, trial);
    }
};

/** What one executed point contributes to the report. */
struct PointResult
{
    std::vector<Row> rows;
    /** Exact legacy text fragment for this point (may be empty). */
    std::string legacy;
};

/** A registered experiment scenario. */
struct Scenario
{
    std::string name;
    std::string description;
    /** Paper artifact this reproduces ("Table 1", "Fig. 11", ...). */
    std::string paperRef;

    unsigned defaultTrials = 1;
    std::uint64_t defaultSeed = 0;
    /** Scenario-specific CLI flags (e.g. --bits). */
    std::vector<ExtraFlag> extraFlags;
    /** Documented meaning of --trials for this scenario. */
    std::string trialsMeaning = "unused (deterministic scenario)";
    /**
     * Whether point results are a pure function of the PointContext
     * (the seeding discipline above) and therefore safe to memoize in
     * the result cache. Scenarios that measure host
     * time (microbench) must clear this: a cached wall-clock number
     * is stale the moment it is written.
     */
    bool cacheable = true;

    /** Column names, aligned with every row the points produce. */
    std::vector<std::string> columns;

    /** Build the sweep grid (may depend on resolved options). */
    std::function<SweepSpec(const RunOptions &)> sweep;

    /**
     * Execute one grid point. MUST be thread-safe and deterministic
     * given the context (see the seeding discipline above).
     */
    std::function<PointResult(const PointContext &,
                              const RunOptions &)> run;

    /**
     * Render the legacy (pre-refactor) output to @p out and return the
     * process exit code. Null = default aligned-table rendering, exit
     * code 0.
     */
    std::function<int(const Report &, const RunOptions &,
                      std::FILE *out)> renderLegacy;
};

} // namespace specint::experiment

#endif // SPECINT_SIM_EXPERIMENT_SCENARIO_HH
