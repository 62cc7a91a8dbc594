/**
 * @file
 * Fixture-reuse switch.
 */

#include "sim/experiment/fixture_pool.hh"

#include <atomic>

namespace specint::experiment
{

namespace
{

std::atomic<bool> reuseEnabled{true};

} // namespace

bool
fixtureReuseEnabled()
{
    return reuseEnabled.load(std::memory_order_relaxed);
}

void
setFixtureReuse(bool on)
{
    reuseEnabled.store(on, std::memory_order_relaxed);
}

} // namespace specint::experiment
