/**
 * @file
 * Build fingerprint for the result cache.
 *
 * Every cache key includes a hash of the simulator's own sources,
 * baked in at build time (scripts/gen_fingerprint.cmake writes the
 * generated literal, CMake reruns it whenever a source changes). A
 * result is a pure function of (scenario, config, seed, point,
 * code-version); the fingerprint is the code-version term, so cache
 * hits across binaries are only possible when the simulation code is
 * byte-identical — a rebuilt simulator silently invalidates every
 * stale entry instead of serving results the new code would not
 * produce.
 */

#ifndef SPECINT_SIM_SERVICE_FINGERPRINT_HH
#define SPECINT_SIM_SERVICE_FINGERPRINT_HH

namespace specint::service
{

/** The 40-hex-char SHA-1 over all simulator sources, baked in at
 *  compile time. */
const char *buildFingerprint();

} // namespace specint::service

#endif // SPECINT_SIM_SERVICE_FINGERPRINT_HH
