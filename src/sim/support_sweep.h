// The section-5 text claim: accuracy plateaus for support sizes n >= 3
// while computation time keeps growing ("We experimented filters with
// n <= 5 ... stays roughly the same after n = 3 ... computation time
// increases significantly").
#pragma once

#include <cstddef>
#include <vector>

#include "core/equilibrium.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"

namespace pg::sim {

struct SupportSweepRow {
  std::size_t support_size = 0;
  defense::MixedDefenseStrategy strategy;
  double predicted_loss = 0.0;      // Algorithm 1's f(S)
  double adversarial_accuracy = 0.0;  // measured on the testbed
  /// Wall time this call spent getting the solution: the descent when
  /// the solution cell computes, about 0 when it is a cache hit.
  double solve_seconds = 0.0;
  /// Algorithm 1's descent iterations, cached with the solution.
  std::size_t solve_iterations = 0;
};

/// Solve each n in [min_n, max_n] with solve_defense and evaluate it
/// empirically, every n on `evaluator`. Strategies for different n often
/// overlap in (placement, filter) cells: an evaluator over a PayoffCache
/// (the scenario engine's is the context's shard) retrains each
/// overlapping cell once instead of once per n, and serves a solution
/// solved before. Requires 1 <= min_n <= max_n.
[[nodiscard]] std::vector<SupportSweepRow> run_support_sweep(
    const ExperimentContext& ctx, const core::PoisoningGame& game,
    std::size_t min_n, std::size_t max_n,
    const core::Algorithm1Config& base_config = {},
    const MixedEvalConfig& eval = {},
    const runtime::PayoffEvaluator& evaluator = runtime::serial_evaluator());

}  // namespace pg::sim
