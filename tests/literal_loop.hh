/**
 * @file
 * The differential reference for stall fast-forward: the literal
 * tick-every-cycle loop, driven through the incremental run API.
 * PipelineEngine::run() and System::run() skip dead cycles; every
 * result they report must equal what these loops produce.
 *
 * The loops also run PipelineEngine::checkInvariants() after every
 * cycle, so every test that uses them checks the incremental
 * scheduling state (each thread's exact per-slot sets) each cycle; the
 * first violation fails the test with its cycle and description.
 */

#ifndef SPECINT_TESTS_LITERAL_LOOP_HH
#define SPECINT_TESTS_LITERAL_LOOP_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/pipeline/engine.hh"
#include "system/system.hh"

namespace specint
{

/** Report @p eng's first invariant violation, if any. @return true
 *  while the invariants hold. */
inline bool
invariantsHold(const PipelineEngine &eng)
{
    const std::string err = eng.checkInvariants();
    if (err.empty())
        return true;
    ADD_FAILURE() << "core " << static_cast<unsigned>(eng.id()) << " cycle "
                  << eng.now() << ": " << err;
    return false;
}

inline EngineRunResult
literalRun(PipelineEngine &eng, const std::vector<const Program *> &progs)
{
    eng.beginRun(progs);
    bool check = invariantsHold(eng);
    while (eng.step()) {
        if (check)
            check = invariantsHold(eng);
    }
    return eng.finishRun();
}

inline SystemRunResult
literalRun(System &sys,
           const std::vector<std::vector<const Program *>> &progs)
{
    sys.beginRun(progs);
    bool check = true;
    do {
        for (unsigned c = 0; check && c < sys.numCores(); ++c)
            check = invariantsHold(sys.core(static_cast<CoreId>(c)));
    } while (sys.tick());
    return sys.finishRun();
}

} // namespace specint

#endif // SPECINT_TESTS_LITERAL_LOOP_HH
