// Numerical verification of the paper's equilibrium claims.
//
//  * Proposition 1 (no pure NE): the discretized game's duality gap
//    (minimax - maximin) is strictly positive and the best-response maps
//    never intersect on the grid.
//  * Section 4.2 conditions: a candidate defender strategy is (1) properly
//    mixed and (2) attacker-indifferent across its support
//    (E(p_i) * Q_i constant).
//  * Equilibrium quality: the attacker's best placement against the
//    mixture gains at most `exploitability` over the indifference value.
#pragma once

#include <cstddef>
#include <vector>

#include "core/game_model.h"
#include "defense/mixed_defense.h"

namespace pg::runtime {
class Executor;
}

namespace pg::core {

struct PureNeReport {
  double maximin = 0.0;
  double minimax = 0.0;
  double gap = 0.0;             // minimax - maximin, > 0 -> no pure NE
  std::size_t saddle_points = 0;
};

/// Discretize (PoisoningGame::discretize; `executor` null -> serial) and
/// scan for saddle points.
[[nodiscard]] PureNeReport analyze_pure_equilibria(
    const PoisoningGame& game, std::size_t grid = 64,
    runtime::Executor* executor = nullptr);

struct IndifferenceReport {
  bool properly_mixed = false;
  /// E(p_i) * Q_i for each support point.
  std::vector<double> products;
  /// max |product_i - mean| / mean; 0 at exact indifference.
  double relative_spread = 0.0;
  bool indifferent = false;  // relative_spread <= tolerance
};

/// Check conditions (1) and (2) of section 4.2 for a candidate strategy.
[[nodiscard]] IndifferenceReport check_indifference(
    const PoisoningGame& game, const defense::MixedDefenseStrategy& strategy,
    double tolerance = 1e-6);

struct ExploitabilityReport {
  /// Expected attacker payoff when he plays any support placement
  /// (the indifference value), excluding the Gamma term.
  double equilibrium_damage = 0.0;
  /// max over a placement grid of N * E(psi) * Q(psi).
  double best_deviation_damage = 0.0;
  /// best_deviation_damage - equilibrium_damage (>= 0 up to grid error).
  double gain = 0.0;
};

/// How much an unconstrained attacker can gain over the support value.
[[nodiscard]] ExploitabilityReport attacker_exploitability(
    const PoisoningGame& game, const defense::MixedDefenseStrategy& strategy,
    std::size_t grid = 2048);

}  // namespace pg::core
