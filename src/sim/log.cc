/**
 * @file
 * Diagnostics implementation: warn/panic/fatal message sinks.
 */

#include "sim/log.hh"

#include <cstdio>
#include <cstdlib>

namespace specint
{

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

} // namespace specint
