/**
 * @file
 * The differential reference for stall fast-forward: the literal
 * tick-every-cycle loop, driven through the incremental run API.
 * PipelineEngine::run() and System::run() skip dead cycles; every
 * result they report must equal what these loops produce.
 */

#ifndef SPECINT_TESTS_LITERAL_LOOP_HH
#define SPECINT_TESTS_LITERAL_LOOP_HH

#include <vector>

#include "cpu/pipeline/engine.hh"
#include "system/system.hh"

namespace specint
{

inline EngineRunResult
literalRun(PipelineEngine &eng, const std::vector<const Program *> &progs)
{
    eng.beginRun(progs);
    while (eng.step()) {
    }
    return eng.finishRun();
}

inline SystemRunResult
literalRun(System &sys,
           const std::vector<std::vector<const Program *>> &progs)
{
    sys.beginRun(progs);
    while (sys.tick()) {
    }
    return sys.finishRun();
}

} // namespace specint

#endif // SPECINT_TESTS_LITERAL_LOOP_HH
