// Pure-strategy equilibrium (saddle point) detection.
//
// Proposition 1 of the paper claims the poisoning game has no pure NE; the
// prop1 scenario discretizes the continuous game and uses
// find_pure_equilibria to confirm the claim numerically on the measured
// payoff curves.
#pragma once

#include <cstddef>
#include <vector>

#include "game/matrix_game.h"

namespace pg::game {

struct PureEquilibrium {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// All (row, col) cells that are simultaneously a column-wise maximum and a
/// row-wise minimum (within tol), i.e. saddle points of the payoff matrix.
[[nodiscard]] std::vector<PureEquilibrium> find_pure_equilibria(
    const MatrixGame& game, double tol = 1e-12);

/// Convenience: true iff the game has at least one saddle point, which for
/// zero-sum games is equivalent to maximin == minimax (within tol).
[[nodiscard]] bool has_pure_equilibrium(const MatrixGame& game,
                                        double tol = 1e-12);

/// The duality gap minimax - maximin (>= 0); strictly positive exactly when
/// no pure equilibrium exists.
[[nodiscard]] double pure_strategy_gap(const MatrixGame& game);

}  // namespace pg::game
