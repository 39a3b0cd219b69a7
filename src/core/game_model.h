// The poisoning game of section 3, in removal-fraction coordinates.
//
// Attacker pure strategy: an allocation S_a = {[psi_i, n_i]} of N poison
// points over placements psi_i in [0, 1] (attack::BoundaryAttack realizes
// one placement on a dataset). Defender pure strategy: a filter strength
// theta in [0, 1]. A point placed at psi survives the filter iff
// theta <= psi, and the zero-sum payoff to the attacker is
//     U_a(S_a, theta) = sum_{psi_i >= theta} n_i * E(psi_i) + Gamma(theta).
//
// The class also implements the best-response analysis behind
// Proposition 1: thresholds T_a / T_d and both best-response functions
// (equations 1a/1b and 2a/2b of the paper).
#pragma once

#include <cstddef>
#include <vector>

#include "core/payoff.h"
#include "game/matrix_game.h"

namespace pg::runtime {
class Executor;
}

namespace pg::core {

/// One [placement, count] element of the attacker's allocation, in
/// removal-fraction coordinates.
struct Placement {
  double fraction = 0.0;
  std::size_t count = 0;
};

using Allocation = std::vector<Placement>;

class PoisoningGame {
 public:
  /// Requires a positive poison budget.
  PoisoningGame(PayoffCurves curves, std::size_t poison_budget);

  [[nodiscard]] const PayoffCurves& curves() const noexcept { return curves_; }
  [[nodiscard]] std::size_t poison_budget() const noexcept { return n_; }

  /// Zero-sum payoff to the attacker (defender's loss).
  [[nodiscard]] double attacker_payoff(const Allocation& sa,
                                       double theta) const;

  /// Attacker best response to a pure defender theta: all N points at the
  /// best surviving placement (or anywhere beyond T_a if nothing profits).
  /// Returns the best placement and its total payoff.
  struct AttackerResponse {
    double placement = 0.0;
    double payoff = 0.0;
  };
  [[nodiscard]] AttackerResponse best_attack_against(double theta,
                                                     std::size_t grid = 512) const;

  /// Defender best response to a pure attacker allocation: the theta
  /// minimizing the attacker payoff over a grid.
  struct DefenderResponse {
    double theta = 0.0;
    double attacker_payoff = 0.0;
  };
  [[nodiscard]] DefenderResponse best_defense_against(const Allocation& sa,
                                                      std::size_t grid = 512) const;

  /// T_a: the placement beyond which poison stops being profitable --
  /// in removal-fraction coordinates, the largest fraction with
  /// E(p) > 0 (the paper's "minimum radius that yields benefit").
  [[nodiscard]] double attacker_threshold() const;

  /// Discretize onto uniform grids: rows = attacker all-in placements,
  /// cols = defender filter strengths. Row payoff = attacker payoff.
  /// The grid is filled through runtime::PayoffEvaluator; `executor`
  /// (null -> serial) parallelizes the fill with bit-identical results.
  [[nodiscard]] game::MatrixGame discretize(
      std::size_t attacker_grid, std::size_t defender_grid,
      runtime::Executor* executor = nullptr) const;

  /// The placement grid used by discretize() for the given size.
  [[nodiscard]] std::vector<double> placement_grid(std::size_t size) const;

 private:
  PayoffCurves curves_;
  std::size_t n_;
};

/// One step of alternating best responses; used by the adaptive_attacker
/// example to visualize the cycling that Proposition 1 implies.
struct BestResponseState {
  double attacker_placement = 0.0;
  double defender_theta = 0.0;
  double attacker_payoff = 0.0;
};

[[nodiscard]] std::vector<BestResponseState> best_response_dynamics(
    const PoisoningGame& game, double initial_theta, std::size_t steps,
    std::size_t grid = 512);

}  // namespace pg::core
