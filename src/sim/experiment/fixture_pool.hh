/**
 * @file
 * Per-worker-thread trial fixture reuse.
 *
 * Attack sweeps historically constructed a full fixture — Hierarchy,
 * MainMemory, one or more cores, harness — for every trial or matrix
 * cell.  For short trials that construction (cache arrays, directory,
 * ROB SoA banks) dominates wall-clock time.  FixtureCache keeps one
 * fixture per fixture type per worker thread and hands it back for
 * every trial whose configuration matches, after the fixture's own
 * resetForRun() has restored a history-independent initial state.
 *
 * Correctness contract:
 *
 *  - the *key* must cover every configuration field the fixture's
 *    construction consumed — a key mismatch rebuilds from scratch;
 *  - resetForRun() must leave the fixture bit-identical (for
 *    simulation purposes) to a freshly constructed one — the
 *    fresh-vs-reused differentials in tests/test_golden_traces.cc and
 *    tests/test_experiment.cc enforce this end to end;
 *  - fixtures are thread_local, so no locking and no cross-worker
 *    sharing; the runner's workers each warm their own.
 *
 * setFixtureReuse(false) restores literal construct-per-trial
 * behaviour (used by the differential tests as the reference side).
 */

#ifndef SPECINT_SIM_EXPERIMENT_FIXTURE_POOL_HH
#define SPECINT_SIM_EXPERIMENT_FIXTURE_POOL_HH

#include <memory>
#include <string>
#include <utility>

namespace specint::experiment
{

/** Global reuse switch (default on). Not thread-synchronised: flip it
 *  only while no sweep is running (tests, CLI startup). */
bool fixtureReuseEnabled();
void setFixtureReuse(bool on);

/**
 * One cached fixture of type F per thread.  F must provide
 * resetForRun().  acquire() returns the cached instance when the key
 * matches (after resetting it), otherwise rebuilds via @p build.
 */
template <typename F>
class FixtureCache
{
  public:
    template <typename Build>
    static F &
    acquire(const std::string &key, Build &&build)
    {
        thread_local std::unique_ptr<F> cached;
        thread_local std::string cachedKey;
        if (fixtureReuseEnabled() && cached && cachedKey == key) {
            cached->resetForRun();
            return *cached;
        }
        cached = build();
        cachedKey = key;
        return *cached;
    }
};

} // namespace specint::experiment

#endif // SPECINT_SIM_EXPERIMENT_FIXTURE_POOL_HH
