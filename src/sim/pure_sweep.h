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

#include "runtime/executor.h"
#include "runtime/payoff_evaluator.h"
#include "sim/experiment.h"

namespace pg::sim {

// Stub named only by perfbench/layer_trace.cpp; ROADMAP item 7 deletes it.
struct RetrainKernel;

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

/// Retrain traffic of one or more cached sweeps (the scenario engine sums
/// these into its cache-stats output; a warm disk-cached re-run must
/// report cells_retrained == 0). Every cell is one or the other.
struct PureSweepStats {
  std::size_t cells_retrained = 0;
  std::size_t cache_hits = 0;
};

/// Run the sweep. `replications` > 1 averages accuracies over independent
/// seeds (reduces SGD noise in the fitted curves).
///
/// Each (grid point, replication) cell retrains the SVM independently on
/// an RngStreamFactory stream keyed by the cell id, so passing an executor
/// parallelizes the sweep with BIT-IDENTICAL results to the serial run
/// (null executor) at any thread count.
///
/// `cache` (optional) memoizes each cell's three measurements under keys
/// covering the context fingerprint plus every per-cell knob -- a hit can
/// only ever return what the cell would recompute, so caching (including a
/// disk-preloaded cache from an earlier process) cannot change results,
/// only skip retrains. `stats` (optional) accumulates the cell/hit counts.
[[nodiscard]] PureSweepResult run_pure_sweep(
    const ExperimentContext& ctx, const std::vector<double>& grid,
    std::size_t replications = 1, runtime::Executor* executor = nullptr,
    runtime::PayoffCache* cache = nullptr, PureSweepStats* stats = nullptr);

}  // namespace pg::sim
