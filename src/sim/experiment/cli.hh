/**
 * @file
 * Shared command-line layer for every experiment driver.
 *
 * Replaces the hand-rolled argv loops that were cloned across the 11
 * bench mains. One declarative flag registry gives every scenario the
 * common knobs (--trials/--seed/--jobs/--csv/--json/--out) plus any
 * scenario-specific flags, and — unlike the old loops, several of
 * which ignored argv entirely — rejects unknown flags loudly, so a
 * typo like `--cvs` is an error instead of a silently ignored no-op.
 */

#ifndef SPECINT_SIM_EXPERIMENT_CLI_HH
#define SPECINT_SIM_EXPERIMENT_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specint::experiment
{

/** How the assembled report is emitted. */
enum class OutputFormat : std::uint8_t
{
    Legacy, ///< the scenario's human-readable (pre-refactor) rendering
    Csv,
    Json,
};

/** A scenario-specific flag taking one unsigned value (e.g. --bits). */
struct ExtraFlag
{
    std::string name;        ///< without the leading "--"
    std::string help;
    std::uint64_t defaultValue = 0;
};

/** Parsed command line for one scenario run. */
struct RunOptions
{
    unsigned trials = 1;
    std::uint64_t seed = 0;
    /** Sweep workers; 0 = one per hardware thread (resolved by
     *  ExperimentRunner). */
    unsigned jobs = 1;
    OutputFormat format = OutputFormat::Legacy;
    /** Empty = stdout. */
    std::string outPath;
    /** Write a metrics-registry snapshot here after the run
     *  ("" = off, "-" = stdout). Enables metric publication. */
    std::string metricsOut;
    /** Write a Chrome trace-event JSON here after the run
     *  ("" = off, "-" = stdout). Enables event tracing. */
    std::string traceOut;
    /** Collect and print a host-time phase/point breakdown. */
    bool profile = false;
    /** Root of the content-addressed result cache ("" = off): point
     *  results are memoized on disk and reused when (scenario, flags,
     *  seed, point, build fingerprint) all match. */
    std::string cacheDir;
    /** Resolved scenario-specific flags, keyed by flag name. */
    std::map<std::string, std::uint64_t> extra;

    std::uint64_t extraOr(const std::string &name,
                          std::uint64_t fallback) const
    {
        auto it = extra.find(name);
        return it == extra.end() ? fallback : it->second;
    }
};

/** Result of CliArgs::parse. */
struct CliParse
{
    bool ok = false;
    /** Set when --help was requested (ok is true, caller exits 0). */
    bool helpRequested = false;
    std::string error; ///< set when !ok
    RunOptions options;
};

/**
 * Declarative argv parser. Construct with the scenario's defaults and
 * extra flags, then parse(). All errors (unknown flag, missing or
 * malformed value) are reported, never ignored.
 */
class CliArgs
{
  public:
    CliArgs(std::string program, unsigned default_trials,
            std::uint64_t default_seed,
            std::vector<ExtraFlag> extra_flags = {});

    /** Parse argv[1..argc). */
    CliParse parse(int argc, char **argv) const;

    /** Usage text listing every accepted flag. */
    std::string usage() const;

  private:
    std::string program_;
    unsigned defaultTrials_;
    std::uint64_t defaultSeed_;
    std::vector<ExtraFlag> extraFlags_;
};

} // namespace specint::experiment

#endif // SPECINT_SIM_EXPERIMENT_CLI_HH
