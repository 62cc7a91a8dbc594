/**
 * @file
 * CliArgs implementation: one strict argv parser for all drivers.
 */

#include "sim/experiment/cli.hh"

#include <cerrno>
#include <cstdlib>

namespace specint::experiment
{

namespace
{

bool
parseU64(const char *s, std::uint64_t &out)
{
    if (!s || !*s)
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0')
        return false;
    out = v;
    return true;
}

} // namespace

CliArgs::CliArgs(std::string program, unsigned default_trials,
                 std::uint64_t default_seed,
                 std::vector<ExtraFlag> extra_flags)
    : program_(std::move(program)), defaultTrials_(default_trials),
      defaultSeed_(default_seed), extraFlags_(std::move(extra_flags))
{}

CliParse
CliArgs::parse(int argc, char **argv) const
{
    CliParse res;
    RunOptions &opt = res.options;
    opt.trials = defaultTrials_;
    opt.seed = defaultSeed_;
    for (const ExtraFlag &f : extraFlags_)
        opt.extra[f.name] = f.defaultValue;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](std::uint64_t &out) {
            if (i + 1 >= argc) {
                res.error = arg + " requires a value";
                return false;
            }
            if (!parseU64(argv[++i], out)) {
                res.error = arg + ": malformed value '" +
                            argv[i] + "'";
                return false;
            }
            return true;
        };

        if (arg == "--help" || arg == "-h") {
            res.ok = true;
            res.helpRequested = true;
            return res;
        } else if (arg == "--csv") {
            opt.format = OutputFormat::Csv;
        } else if (arg == "--json") {
            opt.format = OutputFormat::Json;
        } else if (arg == "--out") {
            if (i + 1 >= argc) {
                res.error = "--out requires a path";
                return res;
            }
            opt.outPath = argv[++i];
        } else if (arg == "--metrics-out") {
            if (i + 1 >= argc) {
                res.error = "--metrics-out requires a path";
                return res;
            }
            opt.metricsOut = argv[++i];
        } else if (arg == "--trace-out") {
            if (i + 1 >= argc) {
                res.error = "--trace-out requires a path";
                return res;
            }
            opt.traceOut = argv[++i];
        } else if (arg == "--profile") {
            opt.profile = true;
        } else if (arg == "--cache-dir") {
            if (i + 1 >= argc) {
                res.error = "--cache-dir requires a path";
                return res;
            }
            opt.cacheDir = argv[++i];
        } else if (arg == "--trials") {
            std::uint64_t v;
            if (!value(v))
                return res;
            if (v == 0) {
                res.error = "--trials must be >= 1";
                return res;
            }
            opt.trials = static_cast<unsigned>(v);
        } else if (arg == "--seed") {
            std::uint64_t v;
            if (!value(v))
                return res;
            opt.seed = v;
        } else if (arg == "--jobs") {
            std::uint64_t v;
            if (!value(v))
                return res;
            // 0 = one worker per hardware thread; the runner is the
            // single authority for that resolution.
            opt.jobs = static_cast<unsigned>(v);
        } else {
            bool matched = false;
            for (const ExtraFlag &f : extraFlags_) {
                if (arg == "--" + f.name) {
                    std::uint64_t v;
                    if (!value(v))
                        return res;
                    opt.extra[f.name] = v;
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                res.error = "unknown flag '" + arg + "'";
                return res;
            }
        }
    }
    res.ok = true;
    return res;
}

std::string
CliArgs::usage() const
{
    std::string u = "usage: " + program_ +
                    " [--trials N] [--seed S] [--jobs J]"
                    " [--csv | --json] [--out FILE]"
                    " [--metrics-out FILE] [--trace-out FILE]"
                    " [--profile] [--cache-dir DIR]";
    for (const ExtraFlag &f : extraFlags_)
        u += " [--" + f.name + " N]";
    u += "\n";
    u += "  --trials N   trials per sweep point (default " +
         std::to_string(defaultTrials_) + ")\n";
    u += "  --seed S     base RNG seed (default " +
         std::to_string(defaultSeed_) + ")\n";
    u += "  --jobs J     parallel sweep workers; 0 = all hardware "
         "threads (default 1)\n";
    u += "  --csv        emit one machine-readable CSV table\n";
    u += "  --json       emit the report as JSON\n";
    u += "  --out FILE   write the report to FILE instead of stdout\n";
    u += "  --metrics-out FILE  export a metric-registry snapshot "
         "(JSON) after the run\n";
    u += "  --trace-out FILE    export a Perfetto-loadable event "
         "trace (JSON) after the run\n";
    u += "  --profile    print a host-time phase/point breakdown to "
         "stderr\n";
    u += "  --cache-dir DIR     memoize point results in a "
         "content-addressed on-disk cache\n";
    for (const ExtraFlag &f : extraFlags_) {
        u += "  --" + f.name;
        u.append(f.name.size() < 9 ? 9 - f.name.size() : 1, ' ');
        u += " " + f.help + " (default " +
             std::to_string(f.defaultValue) + ")\n";
    }
    return u;
}

} // namespace specint::experiment
