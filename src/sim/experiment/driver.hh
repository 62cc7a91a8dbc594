/**
 * @file
 * Driver entry points of the unified `specsim_bench` binary.
 */

#ifndef SPECINT_SIM_EXPERIMENT_DRIVER_HH
#define SPECINT_SIM_EXPERIMENT_DRIVER_HH

#include <string>

#include "sim/experiment/registry.hh"

namespace specint::experiment
{

/**
 * Run one registered scenario with the given argv: parse flags (the
 * shared layer plus the scenario's extras), execute the sweep, emit
 * the report in the requested format, and return the process exit
 * code: `specsim_bench <scenario> [flags...]`.
 */
int runScenarioCli(const ScenarioRegistry &registry,
                   const std::string &scenario_name, int argc,
                   char **argv);

/**
 * The `specsim_bench` main: `specsim_bench --list` or
 * `specsim_bench <scenario> [flags...]`.
 */
int experimentMain(const ScenarioRegistry &registry, int argc,
                   char **argv);

} // namespace specint::experiment

#endif // SPECINT_SIM_EXPERIMENT_DRIVER_HH
