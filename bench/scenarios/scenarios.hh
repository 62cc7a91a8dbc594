/**
 * @file
 * Registered experiment scenarios: every bench/figure/ablation driver,
 * declaratively described for the experiment subsystem
 * (src/sim/experiment/). The unified `specsim_bench` driver
 * dispatches through all().
 */

#ifndef SPECINT_BENCH_SCENARIOS_SCENARIOS_HH
#define SPECINT_BENCH_SCENARIOS_SCENARIOS_HH

#include "sim/experiment/registry.hh"

namespace specint::scenarios
{

/** @name Per-file registration hooks (one per legacy bench). */
/// @{
void registerTable1(experiment::ScenarioRegistry &r);
void registerFig7(experiment::ScenarioRegistry &r);
void registerFig8(experiment::ScenarioRegistry &r);
void registerFig11(experiment::ScenarioRegistry &r);
void registerFig12(experiment::ScenarioRegistry &r);
void registerAblationAdvanced(experiment::ScenarioRegistry &r);
void registerAblationMshr(experiment::ScenarioRegistry &r);
void registerAblationRs(experiment::ScenarioRegistry &r);
void registerAblationSmt(experiment::ScenarioRegistry &r);
void registerAblationCrossCore(experiment::ScenarioRegistry &r);
void registerAblationCoherence(experiment::ScenarioRegistry &r);
void registerMicrobench(experiment::ScenarioRegistry &r);
/// @}

/** Register every scenario above into @p r. */
void registerAllScenarios(experiment::ScenarioRegistry &r);

/** The process-wide registry with every scenario registered. */
const experiment::ScenarioRegistry &all();

} // namespace specint::scenarios

#endif // SPECINT_BENCH_SCENARIOS_SCENARIOS_HH
