// The unified experiment driver: every bench figure and example pipeline
// registers into engine::ExperimentRegistry (one translation unit each, all
// linked into this binary), and this main just forwards to the runner CLI:
//
//   cisp_experiments list [--describe]
//   cisp_experiments describe <name>
//   cisp_experiments run <name|glob>... [--threads N] [--seed S] [--fast]
//                    [--set k=v] [--csv-dir DIR] [--json] [--no-cache]
//                    [--cache-dir DIR] [--require-rows] [--metrics]
//                    [--trace FILE]
//   cisp_experiments sweep <name> --axis k=v1,v2,... [run flags but
//                    --metrics/--trace]
//   cisp_experiments diff <run-a> <run-b> [--tolerance T] [--relative R]
//                    [--cache-dir DIR]
//   cisp_experiments perf --out FILE [--fast]
//   cisp_experiments perf --against BASE.json... --current HEAD.json...

#include <iostream>

#include "engine/runner.hpp"

int main(int argc, char** argv) {
  return cisp::engine::run_cli(argc, argv, std::cout, std::cerr);
}
