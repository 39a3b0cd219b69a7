#include "scenario/registry.h"

#include <algorithm>

#include "util/env.h"
#include "util/error.h"

namespace pg::scenario {

namespace {

/// The shared PG_BENCH_* envelope every legacy bench started from
/// (bench_common.h's paper_config + sweep_reps + bench_executor).
ScenarioSpec paper_base() {
  ScenarioSpec spec;
  spec.seed = util::env_size("PG_BENCH_SEED", 42);
  spec.instances = util::env_size("PG_BENCH_INSTANCES", 4601);
  spec.epochs = util::env_size("PG_BENCH_EPOCHS", 300);
  spec.replications = util::env_size("PG_BENCH_REPS", 2);
  spec.threads = util::env_size("PG_BENCH_THREADS", 0);
  return spec;
}

/// The reduced envelope several benches used for structure-not-scale
/// experiments: min(paper size, cap), preserving env override semantics.
ScenarioSpec reduced_base(std::size_t max_instances, std::size_t max_epochs) {
  ScenarioSpec spec = paper_base();
  spec.instances = std::min(spec.instances, max_instances);
  spec.epochs = std::min(spec.epochs, max_epochs);
  return spec;
}

ScenarioSpec make_fig1() {
  ScenarioSpec spec = paper_base();
  spec.name = "fig1";
  spec.kind = "pure_sweep";
  spec.description = "Figure 1: pure strategy defense under optimal attack";
  return spec;
}

ScenarioSpec make_table1() {
  ScenarioSpec spec = paper_base();
  spec.name = "table1";
  spec.kind = "mixed_table";
  spec.description = "Table 1: mixed strategy defense under optimal attack";
  spec.draws = 3;
  spec.support_min = 2;
  spec.support_max = 3;
  return spec;
}

ScenarioSpec make_prop1() {
  ScenarioSpec spec = reduced_base(1500, 120);
  spec.name = "prop1";
  spec.kind = "pure_ne";
  spec.description = "Proposition 1: non-existence of pure strategy NE";
  return spec;
}

ScenarioSpec make_nsweep() {
  ScenarioSpec spec = paper_base();
  spec.name = "nsweep";
  spec.kind = "support_sweep";
  spec.description = "Support-size sweep: accuracy plateau after n = 3";
  spec.draws = 2;
  spec.support_min = 1;
  spec.support_max = 5;
  return spec;
}

ScenarioSpec make_transfer() {
  ScenarioSpec spec = reduced_base(2000, 150);
  spec.name = "transfer";
  spec.kind = "transfer";
  spec.description = "Curve-transfer extension: does E/Gamma generalize?";
  spec.draws = 2;
  spec.support_max = 3;
  return spec;
}

ScenarioSpec make_solver_ablation() {
  ScenarioSpec spec = reduced_base(1500, 120);
  spec.name = "solver_ablation";
  spec.kind = "solver_ablation";
  spec.description = "Solver ablation: four routes to the mixed NE";
  return spec;
}

ScenarioSpec make_defense_ablation() {
  ScenarioSpec spec = reduced_base(2000, 150);
  spec.name = "defense_ablation";
  spec.kind = "defense_ablation";
  spec.description = "Defense ablations: centroid drift + sanitizer families";
  return spec;
}

ScenarioSpec make_micro() {
  ScenarioSpec spec = paper_base();
  spec.name = "micro";
  spec.kind = "micro";
  spec.description = "Micro kernel: payoff grid speedup_vs_serial";
  spec.timing_reps = util::env_size("PG_BENCH_SOLVER_REPS", 1);
  return spec;
}

ScenarioSpec make_serve_metrics() {
  // Service health, not simulation: sized by nothing, so the paper
  // envelope's knobs are irrelevant -- a bare spec keeps the golden
  // baseline independent of PG_BENCH_* overrides.
  ScenarioSpec spec;
  spec.name = "serve_metrics";
  spec.kind = "serve_metrics";
  spec.description =
      "Service health: serve/fault/retry counters + protocol versions";
  return spec;
}

}  // namespace

ScenarioRegistry::ScenarioRegistry() {
  const auto add = [this](ScenarioSpec (*make)()) {
    const ScenarioSpec spec = make();
    entries_.push_back({spec.name, spec.kind, spec.description, make});
  };
  add(&make_fig1);
  add(&make_table1);
  add(&make_prop1);
  add(&make_nsweep);
  add(&make_transfer);
  add(&make_solver_ablation);
  add(&make_defense_ablation);
  add(&make_micro);
  add(&make_serve_metrics);
}

const ScenarioRegistry& ScenarioRegistry::instance() {
  static const ScenarioRegistry registry;
  return registry;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const ScenarioEntry& e : entries_) out.push_back(e.name);
  return out;
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const ScenarioEntry& e) { return e.name == name; });
}

ScenarioSpec ScenarioRegistry::make(const std::string& name) const {
  for (const ScenarioEntry& e : entries_) {
    if (e.name == name) return e.make();
  }
  PG_CHECK(false, "unknown scenario: " + name +
                      " (pg_run --list shows the catalog)");
  return ScenarioSpec{};  // unreachable
}

}  // namespace pg::scenario
