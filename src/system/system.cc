/**
 * @file
 * System implementation: configuration validation, construction of
 * the N engines over the shared hierarchy, the deterministic
 * round-robin tick loop and the coordinated stall fast-forward.
 */

#include "system/system.hh"

#include <algorithm>

#include "sim/log.hh"

namespace specint
{

std::string
SystemConfig::validate() const
{
    if (numCores == 0)
        return "numCores must be nonzero";
    if (numCores > 64)
        return "numCores (" + std::to_string(numCores) +
               ") exceeds the supported maximum (64)";
    std::string err = core.validate();
    if (!err.empty())
        return err;
    err = validateSmtConfig(smt, core);
    if (!err.empty())
        return err;
    err = hier.validate();
    if (!err.empty())
        return "hier." + err;
    return "";
}

namespace
{

/** Validate @p cfg (fatal on misconfig — this must happen before the
 *  Hierarchy member is constructed from it, or a pathological core
 *  count would OOM/overflow before the clean error) and derive the
 *  hierarchy configuration. */
HierarchyConfig
validatedHierConfig(const SystemConfig &cfg)
{
    const std::string err = cfg.validate();
    if (!err.empty())
        fatal("SystemConfig: " + err);
    HierarchyConfig h = cfg.hier;
    // One id per core plus a spare direct-LLC client id for attacker
    // agents, so receivers never alias a real core's private caches.
    h.cores = cfg.numCores + 1;
    return h;
}

} // namespace

System::System(SystemConfig cfg)
    : cfg_(std::move(cfg)), hier_(validatedHierConfig(cfg_))
{
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        cores_.push_back(std::make_unique<PipelineEngine>(
            cfg_.core, cfg_.smt, static_cast<CoreId>(c), hier_, mem_,
            "System core " + std::to_string(c),
            "SystemConfig(core " + std::to_string(c) + ")"));
    }
}

void
System::resetForRun()
{
    for (auto &core : cores_)
        core->resetForRun();
    hier_.reset();
    mem_.clear();
}

void
System::beginRun(const std::vector<std::vector<const Program *>> &progs)
{
    if (progs.size() != cores_.size()) {
        fatal("System::beginRun: " + std::to_string(progs.size()) +
              " workloads for " + std::to_string(cores_.size()) +
              " cores");
    }
    for (unsigned c = 0; c < cores_.size(); ++c) {
        if (progs[c].size() != cfg_.smt.numThreads) {
            fatal("System::beginRun: core " + std::to_string(c) +
                  " got " + std::to_string(progs[c].size()) +
                  " programs for " +
                  std::to_string(cfg_.smt.numThreads) + " threads");
        }
        cores_[c]->beginRun(progs[c]);
    }
}

bool
System::tick()
{
    bool stepped = false;
    for (auto &core : cores_)
        stepped |= core->step();
    return stepped;
}

void
System::maybeFastForward()
{
    // A coordinated skip is legal only when every live core agrees no
    // structure can transition: the per-core predicate is core-local
    // (completion times, busy timers, queue occupancy — no shared-
    // hierarchy reads), so the minimum over live cores bounds the
    // whole system. Finished cores stop consuming ticks and stay
    // frozen, exactly as in the plain loop.
    Tick bound = kTickMax;
    Tick shared_now = 0;
    bool any_live = false;
    for (auto &core : cores_) {
        if (core->halted() || core->now() >= core->config().maxCycles)
            continue;
        any_live = true;
        shared_now = std::max(shared_now, core->now());
        bound = std::min(bound, core->probeTransition());
    }
    if (!any_live || bound <= shared_now)
        return;
    for (auto &core : cores_) {
        if (core->halted() || core->now() >= core->config().maxCycles)
            continue;
        core->fastForwardTo(bound);
    }
}

bool
System::halted() const
{
    for (const auto &core : cores_)
        if (!core->halted())
            return false;
    return true;
}

Tick
System::now() const
{
    Tick t = 0;
    for (const auto &core : cores_)
        t = std::max(t, core->now());
    return t;
}

SystemRunResult
System::finishRun()
{
    SystemRunResult res;
    res.finished = true;
    for (auto &core : cores_) {
        res.cores.push_back(core->finishRun());
        res.cycles = std::max(res.cycles, res.cores.back().cycles);
        res.finished = res.finished && res.cores.back().finished;
    }
    return res;
}

SystemRunResult
System::run(const std::vector<std::vector<const Program *>> &progs)
{
    beginRun(progs);
    while (tick())
        maybeFastForward();
    return finishRun();
}

} // namespace specint
