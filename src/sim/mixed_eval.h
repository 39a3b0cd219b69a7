// The Table-1 experiment: mixed strategy defense under optimal attack.
//
// Given a defender mixed strategy (typically Algorithm 1's output), the
// optimal attacker places poison at the boundaries of the mixture's
// support (section 4.2 shows he is indifferent among them). This harness
// evaluates the defended model's expected accuracy over filter draws and
// reports the *adversarial* (minimum over attacker support placements)
// value, plus the best pure-strategy accuracy for the paper's comparison
// claim "mixed accuracy strictly exceeds every pure defense".
//
// It also memoizes Algorithm 1 itself: solve_defense() keeps a measured
// game's solution as one cell of the context's evaluator, next to the
// payoff cells the game was fitted from.
#pragma once

#include <cstddef>
#include <vector>

#include "core/equilibrium.h"
#include "core/game_model.h"
#include "defense/mixed_defense.h"
#include "runtime/payoff_evaluator.h"
#include "sim/experiment.h"
#include "sim/pure_sweep.h"

namespace pg::sim {

struct MixedEvalResult {
  /// Expected accuracy when the attacker plays each candidate placement
  /// (aligned with `attacker_placements`).
  std::vector<double> accuracy_by_placement;
  std::vector<double> attacker_placements;
  /// min over placements -- what a rational attacker forces.
  double adversarial_accuracy = 0.0;
  /// Expected accuracy with no attack (pays only the Gamma of the mix).
  double no_attack_accuracy = 0.0;
};

struct MixedEvalConfig {
  /// Monte-Carlo draws of the defender's filter strength per placement.
  std::size_t draws = 9;
  /// Also evaluate placements just inside each support point (the
  /// paper's "near any boundary of the mixed defense strategy").
  bool include_support_placements = true;
  /// Extra attacker placements to probe (e.g. off-support deviations).
  std::vector<double> extra_placements;
};

/// Evaluate on `evaluator`: every (placement, filter, replication) cell
/// is one one-value cell, run in parallel on the evaluator's executor
/// and, when the evaluator carries a PayoffCache, served from the cache
/// instead of retraining -- the support sweep and the transfer experiment
/// reuse cells across strategies this way. Each cell derives its Rng from
/// its own content key, so results are bit-identical at any thread count
/// and unaffected by cache hits.
[[nodiscard]] MixedEvalResult evaluate_mixed_defense(
    const ExperimentContext& ctx,
    const defense::MixedDefenseStrategy& strategy,
    const MixedEvalConfig& config = {},
    const runtime::PayoffEvaluator& evaluator = runtime::serial_evaluator());

/// Algorithm 1 (core::compute_optimal_defense) on `game` as one cell of
/// `evaluator`, 2n + 3 values wide for n = config.support_size: the n
/// support fractions, the n probabilities, defender_loss, iterations and
/// converged. The cell is keyed by everything the solve reads -- the
/// poison budget, every Algorithm1Config field and both curves' knots --
/// so a hit returns the bit-identical solution without a descent, from
/// the context's shard on disk too, and two concurrent solves of one
/// game run it once. The returned `trace` is empty on a hit and on a
/// computed cell alike: no caller reads it (call compute_optimal_defense
/// for the convergence trace, or to time the solve itself).
[[nodiscard]] core::DefenseSolution solve_defense(
    const core::PoisoningGame& game, const core::Algorithm1Config& config,
    const runtime::PayoffEvaluator& evaluator);

/// Accuracy of the best PURE defense under the pure-optimal attack, i.e.
/// max over grid of the attacked curve -- the paper's benchmark that the
/// mixed strategy must beat.
struct PureBenchmark {
  double best_fraction = 0.0;
  double best_accuracy = 0.0;
};

[[nodiscard]] PureBenchmark best_pure_defense(const PureSweepResult& sweep);

}  // namespace pg::sim
