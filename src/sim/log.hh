/**
 * @file
 * Minimal diagnostics, modelled on gem5's warn()/panic()/fatal()
 * message functions.
 */

#ifndef SPECINT_SIM_LOG_HH
#define SPECINT_SIM_LOG_HH

#include <string>

namespace specint
{

/** Something works but is suspicious: prints "warn: <msg>" to
 *  stderr. */
void warn(const std::string &msg);

/**
 * Unrecoverable internal invariant violation (simulator bug).
 * Prints the message and aborts, following gem5 panic() semantics.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Unrecoverable user/configuration error.
 * Prints the message and exits with status 1 (gem5 fatal() semantics).
 */
[[noreturn]] void fatal(const std::string &msg);

} // namespace specint

#endif // SPECINT_SIM_LOG_HH
