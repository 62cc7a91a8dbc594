/**
 * @file
 * Cell/row codec for cached point results.
 *
 * Each experiment::Value is a small tagged JSON object. Reals carry
 * their %.17g text plus display precision, so a decoded cell renders
 * byte-identically to the original on every emitter (what the result
 * cache needs to replay CSV output exactly).
 */

#ifndef SPECINT_SIM_SERVICE_WIRE_HH
#define SPECINT_SIM_SERVICE_WIRE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment/cli.hh"
#include "sim/experiment/value.hh"
#include "sim/service/json.hh"

namespace specint::service
{

/** @name Cell / row codec (lossless round-trip). */
/// @{
Json encodeValue(const experiment::Value &v);
bool decodeValue(const Json &j, experiment::Value &out);
Json encodeRows(const std::vector<experiment::Row> &rows);
bool decodeRows(const Json &j, std::vector<experiment::Row> &out);
/// @}

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
