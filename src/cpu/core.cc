/**
 * @file
 * Core façade implementation: CoreConfig validation and the
 * single-thread run() conversion. The pipeline itself lives in the
 * unified engine (cpu/pipeline/) — this file intentionally contains
 * no stage logic.
 */

#include "cpu/core.hh"

#include "cpu/rob.hh"
#include "sim/log.hh"

namespace specint
{

std::string
CoreConfig::validate() const
{
    const struct { unsigned value; const char *name; } positives[] = {
        {fetchWidth, "fetchWidth"},   {decodeQueue, "decodeQueue"},
        {dispatchWidth, "dispatchWidth"}, {issueWidth, "issueWidth"},
        {retireWidth, "retireWidth"}, {robSize, "robSize"},
        {rsSize, "rsSize"},           {lqSize, "lqSize"},
        {sqSize, "sqSize"},           {mshrs, "mshrs"},
        {cdbWidth, "cdbWidth"},
    };
    for (const auto &p : positives) {
        if (p.value == 0)
            return std::string(p.name) + " must be nonzero";
    }
    if (robSize > kMaxRobSize) {
        return "robSize (" + std::to_string(robSize) +
               ") exceeds the largest ROB a per-slot set indexes (" +
               std::to_string(kMaxRobSize) + ")";
    }
    if (issueWidth > kNumPorts) {
        return "issueWidth (" + std::to_string(issueWidth) +
               ") exceeds the port count (" + std::to_string(kNumPorts) +
               ")";
    }
    if (maxCycles == 0)
        return "maxCycles must be nonzero";
    return "";
}

Core::Core(CoreConfig cfg, CoreId id, Hierarchy &hier, MainMemory &mem)
    : engine_(cfg, SmtConfig::singleThread(), id, hier, mem, "Core",
              "CoreConfig")
{
}

CoreStats
Core::run(const Program &prog)
{
    const EngineRunResult res = engine_.run({&prog});
    const ThreadStats &t = res.threads[0];
    CoreStats stats;
    stats.cycles = res.cycles;
    stats.retired = t.retired;
    stats.issued = t.issued;
    stats.squashes = t.squashes;
    stats.branches = t.branches;
    stats.mispredicts = t.mispredicts;
    stats.loads = t.loads;
    stats.loadL1Hits = t.loadL1Hits;
    stats.finished = res.finished;
    return stats;
}

} // namespace specint
