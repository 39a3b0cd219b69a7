// The Fig.-1 experiment: pure strategy defense under optimal attack.
//
// For each filter strength p on a grid, two measurements:
//   * no-attack accuracy  -- filter at p applied to clean data only; the
//     decline from the unfiltered baseline is Gamma(p);
//   * attacked accuracy   -- the attacker knows p (pure-strategy,
//     full-knowledge assumption of section 5) and places the entire budget
//     just inside the filter boundary (BoundaryAttack at placement p).
// The two series are the figure's y-values; their gap divided by the
// budget estimates E(p).
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/payoff_evaluator.h"
#include "sim/experiment.h"

namespace pg::sim {

// Stubs named only by perfbench/layer_trace.cpp; ROADMAP item 7 deletes
// them.
struct RetrainKernel;
struct PureSweepStats;

struct PureSweepPoint {
  double removal_fraction = 0.0;
  double accuracy_no_attack = 0.0;
  double accuracy_attacked = 0.0;
  double poison_survived_fraction = 0.0;  // share of poison kept by filter
};

struct PureSweepResult {
  std::vector<PureSweepPoint> points;
  double clean_accuracy = 0.0;  // p = 0, no attack
  std::size_t poison_budget = 0;
};

/// Uniform grid of filter strengths in [0, max_fraction].
[[nodiscard]] std::vector<double> sweep_grid(double max_fraction,
                                             std::size_t steps);

/// Run the sweep. `replications` > 1 averages accuracies over independent
/// seeds (reduces SGD noise in the fitted curves).
///
/// Each (grid point, replication) cell is one three-value cell on
/// `evaluator`: it retrains the SVM on an RngStreamFactory stream keyed
/// by the cell id, so the sweep is BIT-IDENTICAL at any thread count of
/// the evaluator's executor. Its keys cover the context fingerprint plus
/// every per-cell knob -- a hit can only ever return what the cell would
/// recompute, so the evaluator's cache (including a disk-preloaded one
/// from an earlier process) cannot change results, only skip retrains.
[[nodiscard]] PureSweepResult run_pure_sweep(
    const ExperimentContext& ctx, const std::vector<double>& grid,
    std::size_t replications = 1,
    const runtime::PayoffEvaluator& evaluator = runtime::serial_evaluator());

}  // namespace pg::sim
