/**
 * @file
 * Assembled experiment results and the unified emitters.
 *
 * A Report holds every point's typed rows (in grid order, regardless
 * of execution order) plus run metadata. One Report feeds all output
 * paths: the scenario's legacy renderer, the generic aligned table,
 * CSV, and JSON (including the BENCH_*.json perf-trajectory files).
 */

#ifndef SPECINT_SIM_EXPERIMENT_REPORT_HH
#define SPECINT_SIM_EXPERIMENT_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment/scenario.hh"
#include "sim/experiment/sweep.hh"
#include "sim/experiment/value.hh"

namespace specint::experiment
{

/** One executed point: its grid coordinates and results. */
struct ReportPoint
{
    SweepPoint point;
    std::vector<Row> rows;
    std::string legacy;
    /** Thread-CPU time this point's executor took, microseconds (so
     *  the sum estimates the serial cost even when workers
     *  oversubscribe the machine). */
    std::uint64_t durationUs = 0;
    /** Set once the point completed; a returned Report has every
     *  point done. */
    bool done = false;
};

/** One named host-time phase of a profiled run (--profile). */
struct ProfilePhase
{
    std::string name;
    std::uint64_t count = 0;
    /** Accumulated wall time, microseconds. */
    std::uint64_t totalUs = 0;
};

/** Assembled results of one scenario run. */
struct Report
{
    std::string scenario;
    std::vector<std::string> columns;
    /** Points in grid (SweepSpec::expand) order. */
    std::vector<ReportPoint> points;

    unsigned jobs = 1;
    unsigned trials = 1;
    std::uint64_t seed = 0;
    /** Wall time of the whole sweep, microseconds. */
    std::uint64_t wallUs = 0;
    /** Never set: the runner completes every point or rethrows a
     *  point's exception. Kept because perfbench's sweep_replay checks
     *  it. */
    bool interrupted = false;
    /** Result-cache accounting (--cache-dir runs only;
     *  cacheEnabled=false keeps the JSON emitter byte-identical for
     *  uncached runs). */
    bool cacheEnabled = false;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Host-time phase breakdown; empty unless the run was profiled
     *  (RunOptions::profile). */
    std::vector<ProfilePhase> profile;

    /** All rows flattened in grid order. */
    std::vector<Row> allRows() const;
    /** Sum of per-point executor times (the serial-cost estimate). */
    std::uint64_t cpuUs() const;

    /** Generic aligned-table rendering (header + one line per row). */
    std::string renderTable() const;
    /** CSV: header line + one comma-joined line per row. */
    std::string renderCsv() const;
    /** JSON object with metadata, sweep stats and the row array. */
    std::string renderJson() const;
    /** Human-readable host-time breakdown: the phase table plus the
     *  per-point executor costs ("" when profile is empty). */
    std::string renderProfile() const;
};

/** Write @p text to @p path ("" or "-" = stdout), creating missing
 *  parent directories. Returns false and prints a diagnostic to stderr
 *  on I/O failure, including one that shows only when the file is
 *  closed or stdout flushed. */
bool writeOut(const std::string &path, const std::string &text);

} // namespace specint::experiment

#endif // SPECINT_SIM_EXPERIMENT_REPORT_HH
