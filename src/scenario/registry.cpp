#include "scenario/registry.h"

#include <algorithm>

#include "util/error.h"

namespace pg::scenario {

namespace {

/// The reduced envelope for structure-not-scale experiments: a smaller
/// corpus and fewer epochs than the paper's 4601 instances x 300.
ScenarioSpec reduced_base(std::size_t instances, std::size_t epochs) {
  ScenarioSpec spec;
  spec.instances = instances;
  spec.epochs = epochs;
  return spec;
}

ScenarioSpec make_fig1() {
  ScenarioSpec spec;
  spec.name = "fig1";
  spec.kind = "pure_sweep";
  spec.description = "Figure 1: pure strategy defense under optimal attack";
  return spec;
}

ScenarioSpec make_table1() {
  ScenarioSpec spec;
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
  ScenarioSpec spec;
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

}  // namespace

ScenarioRegistry::ScenarioRegistry()
    : entries_{make_fig1(), make_table1(), make_prop1(), make_nsweep(),
               make_transfer(), make_solver_ablation(),
               make_defense_ablation()} {}

const ScenarioRegistry& ScenarioRegistry::instance() {
  static const ScenarioRegistry registry;
  return registry;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const ScenarioSpec& e : entries_) out.push_back(e.name);
  return out;
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const ScenarioSpec& e) { return e.name == name; });
}

ScenarioSpec ScenarioRegistry::make(const std::string& name) const {
  for (const ScenarioSpec& e : entries_) {
    if (e.name == name) return e;
  }
  PG_CHECK(false, "unknown scenario: " + name +
                      " (pg_run --list shows the catalog)");
  return ScenarioSpec{};  // unreachable
}

}  // namespace pg::scenario
