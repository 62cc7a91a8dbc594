/**
 * @file
 * Pooled single-victim attack fixture.
 *
 * Every Table-1 matrix cell and every covert-channel run needs the
 * same substrate: a Hierarchy, a MainMemory, one victim Core, the
 * direct-LLC AttackerAgent and a TrialHarness over them.  Building
 * that substrate per trial (cache arrays, ROB SoA banks, directory)
 * costs more than many short trials themselves; acquireAttackFixture()
 * hands back a per-worker-thread pooled instance instead, reset to a
 * history-independent initial state (see
 * sim/experiment/fixture_pool.hh for the reuse contract).
 *
 * Per-trial state — the victim's scheme, noise model, timed actions,
 * sender programs — is NOT part of the fixture: callers install it
 * after acquiring, exactly as they previously did after constructing.
 */

#ifndef SPECINT_ATTACK_TRIAL_FIXTURE_HH
#define SPECINT_ATTACK_TRIAL_FIXTURE_HH

#include <string>

#include "attack/sender.hh"
#include "cpu/core.hh"
#include "memory/hierarchy.hh"

namespace specint
{

struct AttackFixture
{
    Hierarchy hier;
    MainMemory mem;
    Core victim;
    AttackerAgent attacker;
    TrialHarness harness;

    AttackFixture(const CoreConfig &core, const HierarchyConfig &h)
        : hier(h), victim(core, 0, hier, mem), attacker(hier, 1),
          harness(hier, mem, victim, attacker)
    {}

    /** Restore the just-constructed state (FixtureCache contract). */
    void
    resetForRun()
    {
        victim.resetForRun();
        hier.reset();
        mem.clear();
        attacker.resetClock();
    }
};

/**
 * Serialize every configuration field AttackFixture's construction
 * consumes into a cache key.  A field added to CoreConfig or
 * HierarchyConfig must be added here, or two sweeps differing only in
 * that field would alias — the fresh-vs-reused differential tests are
 * the backstop.
 */
std::string attackFixtureKey(const CoreConfig &core,
                             const HierarchyConfig &hier);

/** Per-worker-thread pooled fixture for (core, hier); reset and ready
 *  for a trial. Publishes nothing itself — pool counters live in
 *  experiment::fixtureCacheStats(). */
AttackFixture &acquireAttackFixture(const CoreConfig &core,
                                    const HierarchyConfig &hier);

} // namespace specint

#endif // SPECINT_ATTACK_TRIAL_FIXTURE_HH
