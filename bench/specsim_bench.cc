/**
 * @file
 * Unified experiment driver: `specsim_bench <scenario> [flags...]`
 * runs any registered scenario (every figure/table reproduction and
 * ablation); `specsim_bench --list` enumerates them.
 */

#include "scenarios/scenarios.hh"
#include "sim/experiment/driver.hh"

int
main(int argc, char **argv)
{
    return specint::experiment::experimentMain(
        specint::scenarios::all(), argc, argv);
}
