/**
 * @file
 * The benchmark's workload interface.
 *
 * A workload builds its inputs from the seed in setup(), then runs a
 * fixed list of units per pass. Every pass repeats the same units on
 * the same inputs, so a unit's simulated outputs are identical in
 * every pass and can be checked against a recorded reference (default
 * seed) or against the first pass and seed-independent invariants
 * (any other seed).
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "spans.hh"

namespace perfbench
{

/** One unit's simulated outputs. */
struct UnitResult
{
    /** Stable name of the unit within a pass ("mcf/unsafe", ...). */
    std::string label;
    /** Canonical text of the simulated outputs. */
    std::string output;
    /** Seed-independent invariants held (run finished, ...). */
    bool invariantsOk = true;
};

/** Receives each unit of a pass, in pass order. */
class UnitSink
{
  public:
    virtual ~UnitSink() = default;
    /** @param host_ns host time the unit took. */
    virtual void add(const UnitResult &unit, std::int64_t host_ns) = 0;
    /** The id stamped on spans of the unit about to run. */
    virtual std::uint64_t nextUnitId() const = 0;
};

/** Simulated per-pass counters (identical in every pass). */
using Counters = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input from @p seed (programs, harnesses, bit
     *  strings, cache directory). May be called more than once; the
     *  last call's state is used. */
    virtual void setup(std::uint64_t seed) = 0;

    /** Untimed housekeeping before each pass. */
    virtual void beforePass() {}

    /** Run one pass of units, reporting each to @p sink. */
    virtual void runPass(UnitSink &sink) = 0;

    /** Counters of the last pass. */
    virtual Counters counters() const = 0;

    /** Simulated cycles of one pass (for sim_mcycles_per_s); 0 if a
     *  pass simulates nothing and the metric does not apply. */
    virtual std::uint64_t cyclesPerPass() const = 0;

    /** Add the per-layer metrics keyed by span tag (host ns per
     *  simulated cycle of each scheme or channel) from the traced
     *  passes' spans. */
    virtual void addTaggedMetrics(const SpanSummary &,
                                  double /*traced_passes*/,
                                  Counters &) const
    {}
};

std::unique_ptr<Workload> makeDefenseSuite();
std::unique_ptr<Workload> makeAttackTrials();
std::unique_ptr<Workload> makeSharedContention();
/** @param work_dir directory the result caches are created under. */
std::unique_ptr<Workload> makeSweepReplay(const std::string &work_dir);

/** printf into a std::string. */
std::string strf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
