/**
 * @file
 * Multi-core System: N unified pipeline engines (each optionally SMT)
 * over one shared cache Hierarchy and MainMemory.
 *
 * Every core owns private L1-I/L1-D/L2 arrays; the sliced LLC is
 * shared, both state-wise (fills/evictions/back-invalidation — the
 * substrate of cross-core eviction channels) and, when the
 * HierarchyConfig contention knobs are enabled, bandwidth-wise (slice
 * ports and shared LLC-to-memory MSHRs — the substrate of the
 * cross-core occupancy channel, attack/cross_core_probe.hh).
 *
 * System::tick steps every unfinished core one cycle in ascending
 * CoreId order: a fixed round-robin interleaving, so runs are fully
 * deterministic and repeatable. Cores run in lockstep (their local
 * clocks agree while both are live); a core that retires its Halts
 * simply stops consuming ticks while the others continue. System::run
 * is that loop plus a coordinated skip over cycles in which no live
 * core can change state.
 *
 * This is the attacker placement the paper's PoCs assume (§2.1
 * CrossCore): victim and attacker on different physical cores,
 * interacting only through the shared LLC.
 */

#ifndef SPECINT_SYSTEM_SYSTEM_HH
#define SPECINT_SYSTEM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/pipeline/engine.hh"
#include "memory/hierarchy.hh"
#include "smt/smt_config.hh"

namespace specint
{

/** Full-system configuration. */
struct SystemConfig
{
    /** Physical cores sharing the hierarchy. */
    unsigned numCores = 2;

    /** Per-core pipeline configuration (identical cores). */
    CoreConfig core;

    /** Per-core SMT configuration (1 thread = plain cores). */
    SmtConfig smt = SmtConfig::singleThread();

    /** Cache hierarchy; cores is overridden to numCores + one extra
     *  direct-LLC client id for attacker agents. */
    HierarchyConfig hier = HierarchyConfig::small();

    /**
     * Structural sanity check, mirroring CoreConfig::validate /
     * validateSmtConfig. @return "" if usable, otherwise a description
     * of the first problem. System's constructor fatal()s on a
     * non-empty result.
     */
    std::string validate() const;
};

/** Aggregate result of one multi-core run. */
struct SystemRunResult
{
    /** Cycles until the last core's threads all retired their Halts
     *  (or the per-core maxCycles guard tripped). */
    Tick cycles = 0;
    /** Every thread of every core ran to Halt. */
    bool finished = false;
    /** Per-core engine results, indexed by CoreId. */
    std::vector<EngineRunResult> cores;
};

class System
{
  public:
    explicit System(SystemConfig cfg);

    const SystemConfig &config() const { return cfg_; }
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** Core @p id's unified engine (schemes, predictors, stats). */
    PipelineEngine &core(CoreId id) { return *cores_[id]; }
    const PipelineEngine &core(CoreId id) const { return *cores_[id]; }

    Hierarchy &hierarchy() { return hier_; }
    MainMemory &memory() { return mem_; }

    /**
     * Run every core to completion (or its maxCycles guard): one
     * program per thread per core — progs[c][t] runs on core c,
     * thread t. Dead cycles are skipped (cpu/pipeline/engine.hh).
     */
    SystemRunResult
    run(const std::vector<std::vector<const Program *>> &progs);

    /**
     * Restore the system to its just-constructed state — engines back
     * to default schemes/predictors with timed actions and noise
     * detached, the hierarchy's caches/directory/prefetchers/
     * contention state and transaction slab cleared, main memory
     * emptied — while keeping every allocation (cache arrays, ROB SoA
     * banks, slabs) alive.
     * After resetForRun() a run is bit-identical to the same run on a
     * freshly constructed System of the same config.
     */
    void resetForRun();

    /** @name Incremental run API */
    /// @{
    /** Reset every core and start the given workloads from cycle 0. */
    void beginRun(const std::vector<std::vector<const Program *>> &progs);
    /** Step every unfinished core one cycle, ascending CoreId order
     *  (never skips: the literal loop run() is tested against).
     *  @return false once no core could step (all done). */
    bool tick();
    /** Every core's threads retired their Halts. */
    bool halted() const;
    /** Collect per-core results. */
    SystemRunResult finishRun();
    /** Global cycle count (max over the cores' local clocks). */
    Tick now() const;
    /// @}

  private:
    /** Coordinated stall fast-forward after a lockstep tick: when
     *  every live core is stalled, jump all of them to the earliest
     *  transition of any core (cpu/pipeline/engine.hh). */
    void maybeFastForward();

    SystemConfig cfg_;
    Hierarchy hier_;
    MainMemory mem_;
    std::vector<std::unique_ptr<PipelineEngine>> cores_;
};

} // namespace specint

#endif // SPECINT_SYSTEM_SYSTEM_HH
