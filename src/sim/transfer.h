// Cross-dataset generalization of the payoff curves (the paper's stated
// future work: "It is possible that a generalized E(p) and Gamma(p) exists
// across all datasets").
//
// Protocol: fit E/Gamma and solve Algorithm 1 on a SOURCE corpus, then
// evaluate the resulting mixed strategy on a TARGET corpus (different
// seed and optionally different separability), comparing against the
// strategy solved natively on the target. Because both strategies are
// distributions over *removal fractions* -- a scale-free parametrization
// -- transfer is well-defined even when the raw feature scales differ.
#pragma once

#include "core/equilibrium.h"
#include "sim/curve_fit.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"

namespace pg::sim {

struct TransferResult {
  defense::MixedDefenseStrategy source_strategy;  // solved on source
  defense::MixedDefenseStrategy native_strategy;  // solved on target
  double transferred_accuracy = 0.0;  // source strategy on target testbed
  double native_accuracy = 0.0;       // native strategy on target testbed
  /// transferred - native: ~0 means the curves generalize (the paper's
  /// conjecture); strongly negative means they are dataset-specific.
  double transfer_gap = 0.0;
};

struct TransferConfig {
  std::vector<double> sweep_fractions = {0.0,  0.05, 0.10, 0.15, 0.20,
                                         0.25, 0.30, 0.35, 0.40};
  std::size_t sweep_replications = 1;
  std::size_t support_size = 3;
  MixedEvalConfig eval{};
};

/// Solve a strategy on one prepared context: the pure sweep over
/// config.sweep_fractions on `evaluator`, the curve fit and Algorithm 1
/// at config.support_size, memoized on `evaluator` by solve_defense.
[[nodiscard]] defense::MixedDefenseStrategy solve_transfer_strategy(
    const ExperimentContext& ctx, const TransferConfig& config,
    const runtime::PayoffEvaluator& evaluator = runtime::serial_evaluator());

/// Run the transfer protocol for a source strategy solved once with
/// solve_transfer_strategy, so callers with several targets solve the
/// source once. The target context must be prepared. The native solve's
/// sweep and both target evaluations run on `evaluator`: over a
/// PayoffCache, support points common to the transferred and native
/// strategies retrain once.
[[nodiscard]] TransferResult run_transfer_experiment(
    const defense::MixedDefenseStrategy& source_strategy,
    const ExperimentContext& target, const TransferConfig& config = {},
    const runtime::PayoffEvaluator& evaluator = runtime::serial_evaluator());

}  // namespace pg::sim
