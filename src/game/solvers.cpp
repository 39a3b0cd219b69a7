#include "game/solvers.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "game/lp.h"
#include "obs/trace.h"
#include "util/error.h"

namespace pg::game {

void ConvergenceTrace::push(std::size_t iteration, double gap) {
  if (!wants(iteration)) return;
  samples.push_back({iteration, gap});
  if (samples.size() >= max_samples) {
    // Keep every other sample (iterations at multiples of the doubled
    // stride, since recording started at 0) and coarsen future pushes.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < samples.size(); i += 2) {
      samples[kept++] = samples[i];
    }
    samples.resize(kept);
    stride *= 2;
  }
}

Equilibrium solve_lp_equilibrium(const MatrixGame& game, const LpConfig& lp) {
  obs::Span span("lp_equilibrium", "solver");
  const std::size_t m = game.num_rows();
  const std::size_t n = game.num_cols();

  // Shift the payoff matrix strictly positive so the game value is > 0 and
  // the classic normalization applies.
  const la::Matrix& payoff = game.payoff();
  const double lo =
      *std::min_element(payoff.data().begin(), payoff.data().end());
  const double shift = (lo <= 0.0) ? (1.0 - lo) : 0.0;

  // Column player's LP: maximize sum(z) s.t. B z <= 1, z >= 0 where
  // B = payoff + shift. Optimum: sum(z) = 1 / v', q = z * v'; the duals u
  // give the row strategy p = u * v'; game value = v' - shift.
  LpProblem problem;
  problem.a = la::Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      problem.a(i, j) = payoff(i, j) + shift;
    }
  }
  problem.b.assign(m, 1.0);
  problem.c.assign(n, 1.0);

  const LpSolution sol = solve_lp(problem, lp);
  PG_ASSERT(sol.status == LpStatus::kOptimal,
            "shifted matrix game LP must be bounded");
  PG_ASSERT(sol.objective > 0.0, "shifted game value must be positive");

  const double v_shifted = 1.0 / sol.objective;
  Equilibrium eq;
  eq.value = v_shifted - shift;
  eq.col_strategy.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    eq.col_strategy[j] = std::max(0.0, sol.x[j] * v_shifted);
  }
  eq.row_strategy.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    eq.row_strategy[i] = std::max(0.0, sol.dual[i] * v_shifted);
  }
  eq.row_strategy = normalize(std::move(eq.row_strategy));
  eq.col_strategy = normalize(std::move(eq.col_strategy));
  eq.iterations = sol.iterations;
  return eq;
}

Equilibrium solve_fictitious_play(const MatrixGame& game,
                                  const IterativeConfig& config,
                                  runtime::Executor* executor) {
  (void)executor;  // the solve is serial; see solvers.h
  obs::Span span("fictitious_play", "solver");
  PG_CHECK(config.iterations >= 1, "iterations must be >= 1");
  const std::size_t m = game.num_rows();
  const std::size_t n = game.num_cols();
  const la::Matrix& payoff = game.payoff();

  std::vector<double> row_counts(m, 0.0);
  std::vector<double> col_counts(n, 0.0);
  // Cumulative payoffs of each pure action against the opponent's play
  // history; best response = argmax / argmin without renormalizing.
  std::vector<double> row_scores(m, 0.0);
  std::vector<double> col_scores(n, 0.0);

  std::size_t row_action = 0;
  std::size_t col_action = 0;

  for (std::size_t t = 0; t < config.iterations; ++t) {
    row_counts[row_action] += 1.0;
    col_counts[col_action] += 1.0;

    // One fused pass per player: add the opponent's last action to every
    // score and track the best response. Strict comparisons keep the
    // smallest index on ties, like std::max_element / std::min_element.
    row_scores[0] += payoff(0, col_action);
    double row_best = row_scores[0];
    std::size_t next_row = 0;
    for (std::size_t i = 1; i < m; ++i) {
      row_scores[i] += payoff(i, col_action);
      if (row_scores[i] > row_best) {
        row_best = row_scores[i];
        next_row = i;
      }
    }
    col_scores[0] += payoff(row_action, 0);
    double col_best = col_scores[0];
    std::size_t next_col = 0;
    for (std::size_t j = 1; j < n; ++j) {
      col_scores[j] += payoff(row_action, j);
      if (col_scores[j] < col_best) {
        col_best = col_scores[j];
        next_col = j;
      }
    }
    row_action = next_row;
    col_action = next_col;

    // Duality-gap estimate, free: the extrema just found ARE the
    // best-response cumulative payoffs against t+1 plays of history, so
    // their normalized difference brackets the game value from both
    // sides. Read-only on the trajectory.
    if (config.trace != nullptr && config.trace->wants(t)) {
      const double plays = static_cast<double>(t + 1);
      config.trace->push(t, (row_best - col_best) / plays);
    }
  }

  Equilibrium eq;
  eq.row_strategy = normalize(std::move(row_counts));
  eq.col_strategy = normalize(std::move(col_counts));
  eq.value = game.expected_payoff(eq.row_strategy, eq.col_strategy);
  eq.iterations = config.iterations;
  return eq;
}

Equilibrium solve_multiplicative_weights(const MatrixGame& game,
                                         const IterativeConfig& config,
                                         runtime::Executor* executor) {
  (void)executor;  // the solve is serial; see solvers.h
  obs::Span span("multiplicative_weights", "solver");
  PG_CHECK(config.iterations >= 1, "iterations must be >= 1");
  const std::size_t m = game.num_rows();
  const std::size_t n = game.num_cols();
  const la::Matrix& payoff = game.payoff();

  // Scale payoffs to [0, 1] for the standard Hedge guarantee.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      lo = std::min(lo, payoff(i, j));
      hi = std::max(hi, payoff(i, j));
    }
  }
  const double range = (hi > lo) ? (hi - lo) : 1.0;

  const auto t_total = static_cast<double>(config.iterations);
  const double eta_row =
      config.learning_rate > 0.0
          ? config.learning_rate
          : std::sqrt(8.0 * std::log(static_cast<double>(std::max<std::size_t>(m, 2))) / t_total);
  const double eta_col =
      config.learning_rate > 0.0
          ? config.learning_rate
          : std::sqrt(8.0 * std::log(static_cast<double>(std::max<std::size_t>(n, 2))) / t_total);

  std::vector<double> row_logw(m, 0.0);
  std::vector<double> col_logw(n, 0.0);
  std::vector<double> row_avg(m, 0.0);
  std::vector<double> col_avg(n, 0.0);

  auto softmax = [](const std::vector<double>& logw) {
    const double mx = *std::max_element(logw.begin(), logw.end());
    std::vector<double> p(logw.size());
    double total = 0.0;
    for (std::size_t i = 0; i < logw.size(); ++i) {
      p[i] = std::exp(logw[i] - mx);
      total += p[i];
    }
    for (double& v : p) v /= total;
    return p;
  };

  // The O(m*n) cost of every Hedge step is the pair of payoff matvecs.
  std::vector<double> p;
  std::vector<double> q;
  std::vector<double> row_pay;
  std::vector<double> col_pay;

  for (std::size_t t = 0; t < config.iterations; ++t) {
    p = softmax(row_logw);
    q = softmax(col_logw);
    for (std::size_t i = 0; i < m; ++i) row_avg[i] += p[i];
    for (std::size_t j = 0; j < n; ++j) col_avg[j] += q[j];

    row_pay = game.row_payoffs(q);  // row wants high
    col_pay = game.col_payoffs(p);  // col wants low
    for (std::size_t i = 0; i < m; ++i) {
      row_logw[i] += eta_row * (row_pay[i] - lo) / range;
    }
    for (std::size_t j = 0; j < n; ++j) {
      col_logw[j] -= eta_col * (col_pay[j] - lo) / range;
    }

    // Exploitability spread of this round's mixtures: the best pure
    // deviation for each player against the opponent's current play.
    // O(m + n) scan over payoffs already in hand, and only on sampled
    // iterations; read-only on the trajectory.
    if (config.trace != nullptr && config.trace->wants(t)) {
      double row_best = row_pay[0];
      for (std::size_t i = 1; i < m; ++i) {
        row_best = std::max(row_best, row_pay[i]);
      }
      double col_best = col_pay[0];
      for (std::size_t j = 1; j < n; ++j) {
        col_best = std::min(col_best, col_pay[j]);
      }
      config.trace->push(t, row_best - col_best);
    }
  }

  Equilibrium eq;
  eq.row_strategy = normalize(std::move(row_avg));
  eq.col_strategy = normalize(std::move(col_avg));
  eq.value = game.expected_payoff(eq.row_strategy, eq.col_strategy);
  eq.iterations = config.iterations;
  return eq;
}

}  // namespace pg::game
