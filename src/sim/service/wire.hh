/**
 * @file
 * Byte formats of the result cache: the entry file and the key hash.
 *
 * An entry is a sequence of lines (see encodeEntry()). Text fields are
 * length-prefixed, so any byte survives, and reals carry their %.17g
 * text plus display precision, so a decoded cell renders
 * byte-identically to the original on every emitter (what the result
 * cache needs to replay CSV output exactly).
 */

#ifndef SPECINT_SIM_SERVICE_WIRE_HH
#define SPECINT_SIM_SERVICE_WIRE_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment/cli.hh"
#include "sim/experiment/value.hh"

namespace specint::service
{

/** FNV-1a 64-bit over @p data with offset basis @p basis. */
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t basis = 0xcbf29ce484222325ULL);

/**
 * One cache entry as bytes, one field per line:
 *   - the version line, `specsim-cache v2`;
 *   - the canonical key, as text;
 *   - the checksum: fnv1a64 in 16 hex digits over every byte after
 *     its own line;
 *   - the legacy text;
 *   - the row count, then per row its cell count and one cell per
 *     line: `s <text>`, `i <int64>`, `u <uint64>`,
 *     `r <precision> <%.17g>` or `b 0|1`.
 * A text field is its byte length, a space, the bytes and a newline.
 */
std::string encodeEntry(const std::string &key,
                        const std::vector<experiment::Row> &rows,
                        const std::string &legacy);

/**
 * Parse @p entry, written by encodeEntry() for @p key. On success
 * fills @p rows and @p legacy and returns nullptr; otherwise returns
 * why the entry was rejected (the outputs are then unspecified).
 */
const char *decodeEntry(const std::string &entry, const std::string &key,
                        std::vector<experiment::Row> &rows,
                        std::string &legacy);

/** encodeRows()' result; dump() spells it as the JSON entries of the
 *  version-1 cache did. */
struct RowsText
{
    std::string text;

    const std::string &dump() const { return text; }
};

/** The rows as version-1 JSON text. Only perfbench's sweep_replay
 *  (perfbench/src/sweep_replay.cc) reads it: it digests replayed rows
 *  against its committed reference. */
RowsText encodeRows(const std::vector<experiment::Row> &rows);

/** The semantic subset of RunOptions a cache key covers: exactly the
 *  fields a point result may depend on (trials, seed, extra flags).
 *  Presentation knobs (jobs/format/out/observability) stay out. */
struct JobSpec
{
    std::string scenario;
    unsigned trials = 1;
    std::uint64_t seed = 0;
    std::map<std::string, std::uint64_t> extra;

    static JobSpec fromOptions(const std::string &scenario_name,
                               const experiment::RunOptions &opt);
};

} // namespace specint::service

#endif // SPECINT_SIM_SERVICE_WIRE_HH
