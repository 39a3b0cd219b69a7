#include "core/game_model.h"

#include <algorithm>
#include <cmath>

#include "la/matrix.h"
#include "runtime/executor.h"
#include "util/error.h"

namespace pg::core {

PoisoningGame::PoisoningGame(PayoffCurves curves, std::size_t poison_budget)
    : curves_(std::move(curves)), n_(poison_budget) {
  PG_CHECK(n_ > 0, "PoisoningGame: poison budget must be positive");
}

double PoisoningGame::attacker_payoff(const Allocation& sa,
                                      double theta) const {
  PG_CHECK(theta >= 0.0 && theta <= 1.0, "theta must be in [0, 1]");
  double total = curves_.cost(theta);
  for (const auto& [fraction, count] : sa) {
    PG_CHECK(fraction >= 0.0 && fraction <= 1.0,
             "placement must be in [0, 1]");
    // Survival: the filter is weaker than or equal to the placement.
    if (theta <= fraction + 1e-12) {
      total += static_cast<double>(count) * curves_.damage(fraction);
    }
  }
  return total;
}

PoisoningGame::AttackerResponse PoisoningGame::best_attack_against(
    double theta, std::size_t grid) const {
  PG_CHECK(grid >= 2, "grid must be >= 2");
  const double hi = curves_.max_fraction();
  AttackerResponse best{theta, -1e300};
  for (std::size_t i = 0; i < grid; ++i) {
    const double psi =
        hi * static_cast<double>(i) / static_cast<double>(grid - 1);
    if (theta > psi + 1e-12) continue;  // filtered out
    const double pay = static_cast<double>(n_) * curves_.damage(psi);
    if (pay > best.payoff) best = {psi, pay};
  }
  if (best.payoff < 0.0) {
    // Nothing survives or nothing profits: attack at the boundary B
    // (placement 0 survives only a zero filter; payoff may be 0).
    best = {hi, 0.0};
  }
  best.payoff += curves_.cost(theta);
  return best;
}

PoisoningGame::DefenderResponse PoisoningGame::best_defense_against(
    const Allocation& sa, std::size_t grid) const {
  PG_CHECK(grid >= 2, "grid must be >= 2");
  const double hi = curves_.max_fraction();
  DefenderResponse best{0.0, 1e300};
  for (std::size_t i = 0; i < grid; ++i) {
    const double theta =
        hi * static_cast<double>(i) / static_cast<double>(grid - 1);
    const double pay = attacker_payoff(sa, theta);
    if (pay < best.attacker_payoff) best = {theta, pay};
  }
  return best;
}

double PoisoningGame::attacker_threshold() const {
  return curves_.damage_support_limit();
}

std::vector<double> PoisoningGame::placement_grid(std::size_t size) const {
  PG_CHECK(size >= 2, "grid must be >= 2");
  const double hi = curves_.max_fraction();
  std::vector<double> grid(size);
  for (std::size_t i = 0; i < size; ++i) {
    grid[i] = hi * static_cast<double>(i) / static_cast<double>(size - 1);
  }
  return grid;
}

game::MatrixGame PoisoningGame::discretize(std::size_t attacker_grid,
                                           std::size_t defender_grid,
                                           runtime::Executor* executor) const {
  const auto psis = placement_grid(attacker_grid);
  const auto thetas = placement_grid(defender_grid);
  // Closed-form cells: no cache (a lookup costs as much as the cell), and
  // one row per chunk so dispatch amortizes.
  la::Matrix payoff(attacker_grid, defender_grid);
  runtime::parallel_for(executor, 0, attacker_grid, 1, [&](std::size_t r) {
    const Allocation sa{{psis[r], n_}};
    for (std::size_t c = 0; c < defender_grid; ++c) {
      payoff(r, c) = attacker_payoff(sa, thetas[c]);
    }
  });
  return game::MatrixGame(std::move(payoff));
}

std::vector<BestResponseState> best_response_dynamics(
    const PoisoningGame& game, double initial_theta, std::size_t steps,
    std::size_t grid) {
  PG_CHECK(initial_theta >= 0.0 && initial_theta <= 1.0,
           "initial_theta must be in [0, 1]");
  std::vector<BestResponseState> trace;
  trace.reserve(steps);
  double theta = initial_theta;
  for (std::size_t t = 0; t < steps; ++t) {
    const auto atk = game.best_attack_against(theta, grid);
    const Allocation sa{{atk.placement, game.poison_budget()}};
    const auto def = game.best_defense_against(sa, grid);
    trace.push_back({atk.placement, theta, atk.payoff});
    theta = def.theta;
  }
  return trace;
}

}  // namespace pg::core
