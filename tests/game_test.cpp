// Unit and property tests for pg::game -- matrix games, the simplex LP
// solver, iterative equilibrium solvers, best responses and saddle points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "game/best_response.h"
#include "game/lp.h"
#include "game/matrix_game.h"
#include "game/pure_ne.h"
#include "game/solvers.h"
#include "util/rng.h"

namespace pg::game {
namespace {

MatrixGame rock_paper_scissors() {
  la::Matrix m(3, 3);
  const double v[3][3] = {{0, -1, 1}, {1, 0, -1}, {-1, 1, 0}};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) m(i, j) = v[i][j];
  return MatrixGame(std::move(m));
}

MatrixGame matching_pennies() {
  la::Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = -1;
  m(1, 0) = -1;
  m(1, 1) = 1;
  return MatrixGame(std::move(m));
}

MatrixGame saddle_game() {
  // Row 0 dominates; saddle at (0, 0) with value 2.
  la::Matrix m(2, 2);
  m(0, 0) = 2;
  m(0, 1) = 3;
  m(1, 0) = 1;
  m(1, 1) = 4;
  return MatrixGame(std::move(m));
}

/// 2x2 zero-sum game [[a, b], [c, d]] with no saddle has the closed-form
/// value (ad - bc) / (a + d - b - c).
double closed_form_2x2(double a, double b, double c, double d) {
  return (a * d - b * c) / (a + d - b - c);
}

// ------------------------------------------------------------ matrix_game

TEST(MatrixGameTest, ExpectedPayoffBilinear) {
  const MatrixGame g = matching_pennies();
  EXPECT_DOUBLE_EQ(g.expected_payoff({1.0, 0.0}, {1.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(g.expected_payoff({0.5, 0.5}, {0.5, 0.5}), 0.0);
}

TEST(MatrixGameTest, RowAndColPayoffVectors) {
  const MatrixGame g = saddle_game();
  EXPECT_EQ(g.row_payoffs({1.0, 0.0}), (std::vector<double>{2.0, 1.0}));
  EXPECT_EQ(g.col_payoffs({0.0, 1.0}), (std::vector<double>{1.0, 4.0}));

  // Each entry must equal the naive index-ascending sum bit for bit.
  // Both kernels take four rows per pass: 7 x 600 leaves a 3-row
  // remainder, 8 x 129 is an exact multiple of four, and 3 x 5 has fewer
  // than four rows.
  util::Rng rng(5);
  for (const auto [rows, cols] :
       {std::pair<std::size_t, std::size_t>{7, 600}, {8, 129}, {3, 5}}) {
    la::Matrix a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.uniform(-5.0, 5.0);
    }
    MixedStrategy p(rows);
    MixedStrategy q(cols);
    for (double& v : p) v = rng.uniform(0.0, 1.0);
    for (double& v : q) v = rng.uniform(0.0, 1.0);
    std::vector<double> naive_rows(rows, 0.0);
    std::vector<double> naive_cols(cols, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) naive_rows[i] += a(i, j) * q[j];
    }
    for (std::size_t j = 0; j < cols; ++j) {
      for (std::size_t i = 0; i < rows; ++i) naive_cols[j] += a(i, j) * p[i];
    }
    const MatrixGame wide(std::move(a));
    EXPECT_EQ(wide.row_payoffs(q), naive_rows) << rows << "x" << cols;
    EXPECT_EQ(wide.col_payoffs(p), naive_cols) << rows << "x" << cols;
  }
}

TEST(MatrixGameTest, MaximinMinimax) {
  const MatrixGame g = saddle_game();
  EXPECT_DOUBLE_EQ(g.maximin_value(), 2.0);
  EXPECT_DOUBLE_EQ(g.minimax_value(), 2.0);
  const MatrixGame mp = matching_pennies();
  EXPECT_DOUBLE_EQ(mp.maximin_value(), -1.0);
  EXPECT_DOUBLE_EQ(mp.minimax_value(), 1.0);
}

TEST(MatrixGameTest, StrategyValidation) {
  EXPECT_TRUE(is_distribution({0.5, 0.5}));
  EXPECT_FALSE(is_distribution({0.5, 0.6}));
  EXPECT_FALSE(is_distribution({-0.1, 1.1}));
  EXPECT_FALSE(is_distribution({}));
  EXPECT_EQ(normalize({2.0, 2.0}), (MixedStrategy{0.5, 0.5}));
  EXPECT_THROW((void)normalize({0.0, 0.0}), std::invalid_argument);
}

TEST(MatrixGameTest, SizeMismatchThrows) {
  const MatrixGame g = matching_pennies();
  EXPECT_THROW((void)g.expected_payoff({1.0}, {0.5, 0.5}),
               std::invalid_argument);
  EXPECT_THROW((void)g.row_payoffs({1.0, 0.0, 0.0}), std::invalid_argument);
}

// -------------------------------------------------------------------- lp

TEST(LpTest, SolvesTextbookProblem) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36.
  LpProblem p;
  p.a = la::Matrix(3, 2);
  p.a(0, 0) = 1;
  p.a(1, 1) = 2;
  p.a(2, 0) = 3;
  p.a(2, 1) = 2;
  p.b = {4, 12, 18};
  p.c = {3, 5};
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 6.0, 1e-9);
}

TEST(LpTest, DualPricesSatisfyStrongDuality) {
  LpProblem p;
  p.a = la::Matrix(3, 2);
  p.a(0, 0) = 1;
  p.a(1, 1) = 2;
  p.a(2, 0) = 3;
  p.a(2, 1) = 2;
  p.b = {4, 12, 18};
  p.c = {3, 5};
  const LpSolution s = solve_lp(p);
  double dual_obj = 0.0;
  for (std::size_t i = 0; i < p.b.size(); ++i) {
    EXPECT_GE(s.dual[i], -1e-9);
    dual_obj += s.dual[i] * p.b[i];
  }
  EXPECT_NEAR(dual_obj, s.objective, 1e-9);
}

TEST(LpTest, DetectsUnbounded) {
  LpProblem p;
  p.a = la::Matrix(1, 2);
  p.a(0, 0) = 1.0;  // y unconstrained above
  p.b = {1.0};
  p.c = {0.0, 1.0};
  EXPECT_EQ(solve_lp(p).status, LpStatus::kUnbounded);
}

TEST(LpTest, ZeroObjectiveIsOptimalAtOrigin) {
  LpProblem p;
  p.a = la::Matrix(1, 1);
  p.a(0, 0) = 1.0;
  p.b = {5.0};
  p.c = {-1.0};  // maximizing -x -> x = 0
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-12);
  EXPECT_NEAR(s.x[0], 0.0, 1e-12);
}

TEST(LpTest, RejectsNegativeRhs) {
  LpProblem p;
  p.a = la::Matrix(1, 1);
  p.a(0, 0) = 1.0;
  p.b = {-1.0};
  p.c = {1.0};
  EXPECT_THROW((void)solve_lp(p), std::invalid_argument);
}

TEST(LpTest, RejectsDimensionMismatch) {
  LpProblem p;
  p.a = la::Matrix(2, 2);
  p.b = {1.0};  // wrong size
  p.c = {1.0, 1.0};
  EXPECT_THROW((void)solve_lp(p), std::invalid_argument);
}

TEST(LpTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints (degenerate vertices): Bland's rule
  // must still terminate.
  LpProblem p;
  p.a = la::Matrix(4, 2);
  p.a(0, 0) = 1;
  p.a(1, 0) = 1;  // duplicate of constraint 0
  p.a(2, 1) = 1;
  p.a(3, 0) = 1;
  p.a(3, 1) = 1;
  p.b = {1, 1, 1, 1};
  p.c = {1, 1};
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
}

// --------------------------------------------------------------- solvers

TEST(SolversTest, LpSolvesRps) {
  const auto eq = solve_lp_equilibrium(rock_paper_scissors());
  EXPECT_NEAR(eq.value, 0.0, 1e-9);
  for (double p : eq.row_strategy) EXPECT_NEAR(p, 1.0 / 3.0, 1e-6);
  for (double q : eq.col_strategy) EXPECT_NEAR(q, 1.0 / 3.0, 1e-6);
}

TEST(SolversTest, LpSolvesMatchingPennies) {
  const auto eq = solve_lp_equilibrium(matching_pennies());
  EXPECT_NEAR(eq.value, 0.0, 1e-9);
  EXPECT_NEAR(eq.row_strategy[0], 0.5, 1e-6);
  EXPECT_NEAR(eq.col_strategy[0], 0.5, 1e-6);
}

TEST(SolversTest, LpSolvesSaddleGame) {
  const auto eq = solve_lp_equilibrium(saddle_game());
  EXPECT_NEAR(eq.value, 2.0, 1e-9);
  EXPECT_NEAR(eq.row_strategy[0], 1.0, 1e-6);
  EXPECT_NEAR(eq.col_strategy[0], 1.0, 1e-6);
}

TEST(SolversTest, LpMatchesClosedForm2x2) {
  // Random-ish 2x2 games without saddle points.
  const double cases[][4] = {
      {3, -1, -2, 4}, {0, 2, 3, -1}, {5, 1, 2, 4}, {-1, 1, 2, -2}};
  for (const auto& c : cases) {
    la::Matrix m(2, 2);
    m(0, 0) = c[0];
    m(0, 1) = c[1];
    m(1, 0) = c[2];
    m(1, 1) = c[3];
    const MatrixGame g(std::move(m));
    if (has_pure_equilibrium(g)) continue;
    const auto eq = solve_lp_equilibrium(g);
    EXPECT_NEAR(eq.value, closed_form_2x2(c[0], c[1], c[2], c[3]), 1e-8);
  }
}

TEST(SolversTest, LpEquilibriumHasZeroExploitability) {
  const auto g = rock_paper_scissors();
  const auto eq = solve_lp_equilibrium(g);
  EXPECT_NEAR(exploitability(g, eq.row_strategy, eq.col_strategy), 0.0, 1e-9);
}

TEST(SolversTest, LpOnRandomGamesIsUnexploitable) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 2 + rng.uniform_index(6);
    const std::size_t n = 2 + rng.uniform_index(6);
    la::Matrix a(m, n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a(i, j) = rng.uniform(-5.0, 5.0);
      }
    }
    const MatrixGame g(std::move(a));
    const auto eq = solve_lp_equilibrium(g);
    EXPECT_NEAR(exploitability(g, eq.row_strategy, eq.col_strategy), 0.0,
                1e-7)
        << "trial " << trial;
    // Value sandwiched between the pure security levels.
    EXPECT_GE(eq.value, g.maximin_value() - 1e-9);
    EXPECT_LE(eq.value, g.minimax_value() + 1e-9);
  }
}

TEST(SolversTest, FictitiousPlayConvergesOnRps) {
  const auto g = rock_paper_scissors();
  const auto eq = solve_fictitious_play(g, {.iterations = 50000});
  EXPECT_LT(exploitability(g, eq.row_strategy, eq.col_strategy), 0.02);
  for (double p : eq.row_strategy) EXPECT_NEAR(p, 1.0 / 3.0, 0.05);
}

TEST(SolversTest, MultiplicativeWeightsConvergesOnRps) {
  const auto g = rock_paper_scissors();
  const auto eq = solve_multiplicative_weights(g, {.iterations = 50000});
  EXPECT_LT(exploitability(g, eq.row_strategy, eq.col_strategy), 0.02);
}

TEST(SolversTest, IterativeSolversAgreeWithLpValue) {
  la::Matrix m(3, 4);
  const double v[3][4] = {
      {2, -1, 3, 0}, {-2, 4, -1, 1}, {1, 1, -2, 3}};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j) m(i, j) = v[i][j];
  const MatrixGame g(std::move(m));
  const double exact = solve_lp_equilibrium(g).value;
  const auto fp = solve_fictitious_play(g, {.iterations = 200000});
  const auto mw = solve_multiplicative_weights(g, {.iterations = 100000});
  EXPECT_NEAR(fp.value, exact, 0.02);
  EXPECT_NEAR(mw.value, exact, 0.02);
}

/// Reference Hedge loop for HedgeMatchesReferenceLoop: an allocating
/// softmax, `matvec` for the row payoffs and `matvec_transposed` for the
/// column payoffs, with fresh vectors every iteration.
Equilibrium reference_hedge(const MatrixGame& game,
                            const IterativeConfig& config) {
  const std::size_t m = game.num_rows();
  const std::size_t n = game.num_cols();
  const la::Matrix& payoff = game.payoff();
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
  const auto softmax = [](const std::vector<double>& logw) {
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
  for (std::size_t t = 0; t < config.iterations; ++t) {
    const std::vector<double> p = softmax(row_logw);
    const std::vector<double> q = softmax(col_logw);
    for (std::size_t i = 0; i < m; ++i) row_avg[i] += p[i];
    for (std::size_t j = 0; j < n; ++j) col_avg[j] += q[j];
    const std::vector<double> row_pay = payoff.matvec(q);
    const std::vector<double> col_pay = payoff.matvec_transposed(p);
    for (std::size_t i = 0; i < m; ++i) {
      row_logw[i] += eta_row * (row_pay[i] - lo) / range;
    }
    for (std::size_t j = 0; j < n; ++j) {
      col_logw[j] -= eta_col * (col_pay[j] - lo) / range;
    }
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

TEST(SolversTest, HedgeMatchesReferenceLoop) {
  // Every strategy entry, the value and every trace sample must equal
  // the reference loop bit for bit. Shapes that are not multiples of
  // four exercise the sweep kernel's row tails; 257 iterations make the
  // 256-sample trace decimate. Entries of either sign span 1e-3 to 1e3
  // in magnitude, so a reordered sum would round differently.
  util::Rng rng(24);
  const auto entry = [&rng] {
    const double magnitude = std::pow(10.0, rng.uniform(-3.0, 3.0));
    return rng.uniform() < 0.5 ? -magnitude : magnitude;
  };
  for (const auto [rows, cols] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {1, 6}, {6, 1}, {3, 7},
        {9, 5}, {33, 17}, {128, 128}}) {
    la::Matrix a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) a(i, j) = entry();
    }
    const MatrixGame g(std::move(a));
    for (const std::size_t iterations : {1, 2, 257}) {
      for (const double rate : {0.0, 0.05}) {
        for (const bool traced : {false, true}) {
          const std::string where = std::to_string(rows) + "x" +
                                    std::to_string(cols) + ", " +
                                    std::to_string(iterations) +
                                    " iterations, rate " +
                                    std::to_string(rate) +
                                    (traced ? ", traced" : "");
          ConvergenceTrace want_trace;
          ConvergenceTrace got_trace;
          IterativeConfig config{.iterations = iterations,
                                 .learning_rate = rate,
                                 .trace = traced ? &want_trace : nullptr};
          const Equilibrium want = reference_hedge(g, config);
          config.trace = traced ? &got_trace : nullptr;
          const Equilibrium got = solve_multiplicative_weights(g, config);

          ASSERT_EQ(got.row_strategy.size(), rows) << where;
          ASSERT_EQ(got.col_strategy.size(), cols) << where;
          for (std::size_t i = 0; i < rows; ++i) {
            EXPECT_EQ(got.row_strategy[i], want.row_strategy[i])
                << where << ", row " << i;
          }
          for (std::size_t j = 0; j < cols; ++j) {
            EXPECT_EQ(got.col_strategy[j], want.col_strategy[j])
                << where << ", column " << j;
          }
          EXPECT_EQ(got.value, want.value) << where;
          EXPECT_EQ(got.iterations, want.iterations) << where;
          EXPECT_EQ(got_trace.stride, want_trace.stride) << where;
          ASSERT_EQ(got_trace.samples.size(), want_trace.samples.size())
              << where;
          EXPECT_EQ(got_trace.samples.empty(), !traced) << where;
          for (std::size_t k = 0; k < got_trace.samples.size(); ++k) {
            EXPECT_EQ(got_trace.samples[k].iteration,
                      want_trace.samples[k].iteration)
                << where << ", sample " << k;
            EXPECT_EQ(got_trace.samples[k].gap, want_trace.samples[k].gap)
                << where << ", sample " << k;
          }
        }
      }
    }
  }
}

TEST(SolversTest, IterativeConfigValidation) {
  const auto g = matching_pennies();
  EXPECT_THROW((void)solve_fictitious_play(g, {.iterations = 0}),
               std::invalid_argument);
  EXPECT_THROW((void)solve_multiplicative_weights(g, {.iterations = 0}),
               std::invalid_argument);
}

// ------------------------------------------- iterations + degenerate games

TEST(LpTest, IterationsCountsPivots) {
  // The textbook problem needs at least two pivots to reach (2, 6).
  LpProblem p;
  p.a = la::Matrix(3, 2);
  p.a(0, 0) = 1;
  p.a(1, 1) = 2;
  p.a(2, 0) = 3;
  p.a(2, 1) = 2;
  p.b = {4, 12, 18};
  p.c = {3, 5};
  const LpSolution s = solve_lp(p);
  EXPECT_GE(s.iterations, 2u);
}

TEST(LpTest, IterationsZeroWhenOriginOptimal) {
  LpProblem p;
  p.a = la::Matrix(1, 1);
  p.a(0, 0) = 1.0;
  p.b = {5.0};
  p.c = {-1.0};  // maximizing -x -> the all-slack basis is already optimal
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.iterations, 0u);
}

TEST(SolversTest, OneByNGameReducesToColumnMinimum) {
  // Row player has a single action; the column player simply picks the
  // smallest entry. Degenerate shapes exercise the solvers' edge paths
  // (1-chunk scans, single-row tableaus).
  la::Matrix m(1, 4);
  m(0, 0) = 3.0;
  m(0, 1) = -1.0;
  m(0, 2) = 2.0;
  m(0, 3) = 0.5;
  const MatrixGame g(std::move(m));
  const auto lp = solve_lp_equilibrium(g);
  EXPECT_NEAR(lp.value, -1.0, 1e-9);
  ASSERT_EQ(lp.row_strategy.size(), 1u);
  EXPECT_NEAR(lp.row_strategy[0], 1.0, 1e-12);
  EXPECT_NEAR(lp.col_strategy[1], 1.0, 1e-6);

  // FP spends its first iteration on action 0 before locking onto the
  // best response, so the 1000-iteration average is 999/1000.
  const auto fp = solve_fictitious_play(g, {.iterations = 1000});
  EXPECT_NEAR(fp.value, -1.0, 0.01);
  EXPECT_NEAR(fp.col_strategy[1], 1.0, 2e-3);
}

TEST(SolversTest, NByOneGameReducesToRowMaximum) {
  la::Matrix m(3, 1);
  m(0, 0) = -2.0;
  m(1, 0) = 4.0;
  m(2, 0) = 1.0;
  const MatrixGame g(std::move(m));
  const auto lp = solve_lp_equilibrium(g);
  EXPECT_NEAR(lp.value, 4.0, 1e-9);
  EXPECT_NEAR(lp.row_strategy[1], 1.0, 1e-6);
  ASSERT_EQ(lp.col_strategy.size(), 1u);
  EXPECT_NEAR(lp.col_strategy[0], 1.0, 1e-12);

  const auto fp = solve_fictitious_play(g, {.iterations = 1000});
  EXPECT_NEAR(fp.value, 4.0, 0.01);
  EXPECT_NEAR(fp.row_strategy[1], 1.0, 2e-3);
}

TEST(SolversTest, AllEqualPayoffGameHasFlatValue) {
  // Every strategy pair yields the same payoff: the value is pinned and
  // any returned distributions must be valid and unexploitable.
  la::Matrix m(3, 5, 2.5);
  const MatrixGame g(std::move(m));
  const auto lp = solve_lp_equilibrium(g);
  EXPECT_NEAR(lp.value, 2.5, 1e-9);
  EXPECT_TRUE(is_distribution(lp.row_strategy, 1e-9));
  EXPECT_TRUE(is_distribution(lp.col_strategy, 1e-9));
  EXPECT_NEAR(exploitability(g, lp.row_strategy, lp.col_strategy), 0.0, 1e-9);

  const auto fp = solve_fictitious_play(g, {.iterations = 500});
  EXPECT_NEAR(fp.value, 2.5, 1e-12);
  EXPECT_TRUE(is_distribution(fp.row_strategy, 1e-9));
  EXPECT_NEAR(exploitability(g, fp.row_strategy, fp.col_strategy), 0.0,
              1e-12);
}

// ---------------------------------------------------------- best_response

TEST(BestResponseTest, PicksArgmaxAndArgmin) {
  const MatrixGame g = saddle_game();
  const auto br_row = best_row_response(g, {1.0, 0.0});
  EXPECT_EQ(br_row.action, 0u);
  EXPECT_DOUBLE_EQ(br_row.payoff, 2.0);
  const auto br_col = best_col_response(g, {0.0, 1.0});
  EXPECT_EQ(br_col.action, 0u);
  EXPECT_DOUBLE_EQ(br_col.payoff, 1.0);
}

TEST(BestResponseTest, ExploitabilityZeroOnlyAtEquilibrium) {
  const auto g = matching_pennies();
  EXPECT_NEAR(exploitability(g, {0.5, 0.5}, {0.5, 0.5}), 0.0, 1e-12);
  EXPECT_GT(exploitability(g, {1.0, 0.0}, {0.5, 0.5}), 0.4);
  EXPECT_GT(exploitability(g, {0.5, 0.5}, {0.9, 0.1}), 0.4);
}

// --------------------------------------------------------------- pure_ne

TEST(PureNeTest, FindsSaddlePoint) {
  const auto saddles = find_pure_equilibria(saddle_game());
  ASSERT_EQ(saddles.size(), 1u);
  EXPECT_EQ(saddles[0].row, 0u);
  EXPECT_EQ(saddles[0].col, 0u);
  EXPECT_DOUBLE_EQ(saddles[0].value, 2.0);
  EXPECT_TRUE(has_pure_equilibrium(saddle_game()));
  EXPECT_DOUBLE_EQ(pure_strategy_gap(saddle_game()), 0.0);
}

TEST(PureNeTest, NoSaddleInMatchingPennies) {
  EXPECT_TRUE(find_pure_equilibria(matching_pennies()).empty());
  EXPECT_FALSE(has_pure_equilibrium(matching_pennies()));
  EXPECT_DOUBLE_EQ(pure_strategy_gap(matching_pennies()), 2.0);
}

TEST(PureNeTest, AllCellsSaddleInConstantGame) {
  la::Matrix m(2, 3, 7.0);
  const auto saddles = find_pure_equilibria(MatrixGame(std::move(m)));
  EXPECT_EQ(saddles.size(), 6u);
}

TEST(PureNeTest, GapMatchesSecurityLevels) {
  const auto g = rock_paper_scissors();
  EXPECT_DOUBLE_EQ(pure_strategy_gap(g),
                   g.minimax_value() - g.maximin_value());
}

// Property sweep: on random games, saddle-point existence must coincide
// with a zero duality gap, and the LP value must lie inside the gap.
class RandomGameProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGameProperty, SaddleIffZeroGapAndLpInGap) {
  util::Rng rng(GetParam());
  const std::size_t m = 2 + rng.uniform_index(5);
  const std::size_t n = 2 + rng.uniform_index(5);
  la::Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = static_cast<double>(rng.uniform_int(-4, 4));
    }
  }
  const MatrixGame g(std::move(a));
  const bool saddle = !find_pure_equilibria(g).empty();
  EXPECT_EQ(saddle, has_pure_equilibrium(g));
  const auto eq = solve_lp_equilibrium(g);
  EXPECT_GE(eq.value, g.maximin_value() - 1e-9);
  EXPECT_LE(eq.value, g.minimax_value() + 1e-9);
  if (saddle) {
    EXPECT_NEAR(eq.value, g.maximin_value(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGames, RandomGameProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

// ----------------------------------------------------- Dantzig pricing

MatrixGame random_square_game(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix a(size, size);
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      a(i, j) = rng.uniform(-5.0, 5.0);
    }
  }
  return MatrixGame(std::move(a));
}

TEST(LpPricingTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_lp_pricing("bland"), LpPricing::kBland);
  EXPECT_EQ(parse_lp_pricing("dantzig"), LpPricing::kDantzig);
  EXPECT_THROW((void)parse_lp_pricing("steepest"), std::invalid_argument);
  EXPECT_STREQ(lp_pricing_name(LpPricing::kBland), "bland");
  EXPECT_STREQ(lp_pricing_name(LpPricing::kDantzig), "dantzig");
}

TEST(LpPricingTest, DantzigReachesTheSameGameValue) {
  // Both pricing rules walk to an optimal vertex; the objective (and
  // hence the game value) must agree to solver tolerance, and both
  // strategies must be unexploitable. Dantzig typically needs no more
  // pivots than Bland; assert it at least terminates well under the
  // fallback budget (i.e. its own pricing finished the solve).
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const MatrixGame g = random_square_game(40, seed);
    const Equilibrium bland =
        solve_lp_equilibrium(g, {LpPricing::kBland});
    const Equilibrium dantzig =
        solve_lp_equilibrium(g, {LpPricing::kDantzig});
    EXPECT_NEAR(bland.value, dantzig.value, 1e-9);
    EXPECT_LT(exploitability(g, dantzig.row_strategy, dantzig.col_strategy),
              1e-8);
  }
}

TEST(LpPricingTest, DantzigUsuallyPivotsLess) {
  // The motivation for the flag: on random dense games Dantzig's
  // steepest-reduced-cost choice should not do WORSE than Bland's
  // smallest-index walk. Compare total pivots across a small family.
  std::size_t bland_pivots = 0;
  std::size_t dantzig_pivots = 0;
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const MatrixGame g = random_square_game(32, seed);
    const la::Matrix& payoff = g.payoff();
    double lo = 0.0;
    for (std::size_t i = 0; i < g.num_rows(); ++i) {
      for (std::size_t j = 0; j < g.num_cols(); ++j) {
        lo = std::min(lo, payoff(i, j));
      }
    }
    LpProblem problem;
    problem.a = la::Matrix(g.num_rows(), g.num_cols());
    for (std::size_t i = 0; i < g.num_rows(); ++i) {
      for (std::size_t j = 0; j < g.num_cols(); ++j) {
        problem.a(i, j) = payoff(i, j) + (1.0 - lo);
      }
    }
    problem.b.assign(g.num_rows(), 1.0);
    problem.c.assign(g.num_cols(), 1.0);
    bland_pivots += solve_lp(problem, {LpPricing::kBland}).iterations;
    dantzig_pivots +=
        solve_lp(problem, {LpPricing::kDantzig}).iterations;
  }
  EXPECT_LE(dantzig_pivots, bland_pivots);
}

}  // namespace
}  // namespace pg::game
