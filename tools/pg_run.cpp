// pg_run: the unified scenario driver.
//
// One binary replaces the eight hand-rolled bench mains: `--list` shows
// the registered paper reproductions, `--scenario`/`--spec` executes any
// of them (or a custom spec file) through the scenario engine on the
// runtime Executor, `--set` tweaks individual knobs, `--sweep` expands a
// cross-product grid over any spec keys in one run, `--out` picks the
// result sink (text, JSON, CSV), and `--compare` diffs two JSON result
// artifacts for regression triage (exit 1 past `--tolerance`; the
// tests/golden/ baselines are maintained with `--update-baseline`).
// See src/scenario/ for the engine.
#include <iostream>
#include <string>
#include <vector>

#include "robust/faultpoint.h"
#include "scenario/cli.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  pg::scenario::CliOptions options;
  try {
    // $PG_FAULTS arms the deterministic fault-injection table for this
    // process; --fault flags replace it inside run_cli.
    pg::robust::configure_from_env();
    options = pg::scenario::parse_cli(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return pg::scenario::run_cli(options, std::cout, std::cerr);
}
