#include "core/equilibrium.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace pg::core {

namespace {

/// Clamp-and-sort projection onto the feasible support set:
/// damage-profitable region, strictly increasing with a minimum gap.
void project_support(std::vector<double>& s, double lo, double hi,
                     double min_gap) {
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double floor_i = lo + static_cast<double>(i) * min_gap;
    const double ceil_i =
        hi - static_cast<double>(s.size() - 1 - i) * min_gap;
    s[i] = std::clamp(s[i], floor_i, ceil_i);
    if (i > 0 && s[i] < s[i - 1] + min_gap) s[i] = s[i - 1] + min_gap;
  }
}

/// find_percentages' precondition on support[i]: inside [0, 1] and above
/// its left neighbour.
void check_support_point(const std::vector<double>& support, std::size_t i) {
  PG_CHECK(support[i] >= 0.0 && support[i] <= 1.0,
           "support fractions must be in [0, 1]");
  if (i > 0) {
    PG_CHECK(support[i] > support[i - 1],
             "support must be strictly increasing");
  }
}

void check_support(const std::vector<double>& support) {
  PG_CHECK(!support.empty(), "find_percentages: empty support");
  for (std::size_t i = 0; i < support.size(); ++i) {
    check_support_point(support, i);
  }
}

/// The closed form of equilibrium.h: writes to `prob` the indifference
/// probabilities of the floored damages `e` at a sorted support.
void indifference_probabilities(std::span<const double> e,
                                std::span<double> prob) {
  const std::size_t n = e.size();
  const double e_last = e[n - 1];
  // Q_i = E(p_n)/E(p_i) must be non-decreasing; enforce monotonicity to
  // absorb small non-monotonicity in measured curves.
  for (std::size_t i = 0; i < n; ++i) {
    prob[i] = std::min(1.0, e_last / e[i]);
    if (i > 0) prob[i] = std::max(prob[i], prob[i - 1]);
  }
  prob[n - 1] = 1.0;
  // q_i = Q_i - Q_{i-1}, downward so that Q_{i-1} is still in place.
  for (std::size_t i = n - 1; i > 0; --i) prob[i] -= prob[i - 1];
}

/// Floored E(p_i) and Gamma(p_i) cached for each point of a support of n
/// points. A finite-difference probe moves one point, so it
/// re-interpolates that point only; nothing allocates after construction.
class SupportValues {
 public:
  SupportValues(const PoisoningGame& game, double damage_floor,
                std::size_t n)
      : curves_(game.curves()),
        budget_(static_cast<double>(game.poison_budget())),
        damage_floor_(damage_floor),
        e_(n),
        g_(n),
        prob_(n) {}

  /// find_percentages' checks on the whole support, then E and Gamma at
  /// every point.
  void reset(const std::vector<double>& support) {
    check_support(support);
    for (std::size_t i = 0; i < support.size(); ++i) set(i, support[i]);
  }

  /// f(S) at the cached support.
  [[nodiscard]] double loss() {
    indifference_probabilities(e_, prob_);
    // Attacker term: all N points at the strongest-support placement
    // survive every draw; by indifference every support placement yields
    // the same.
    double f = budget_ * e_.back();
    // Defender term: expected genuine-removal cost (the paper's integral
    // of pdf * Gamma collapses to a sum over the finite support).
    for (std::size_t i = 0; i < e_.size(); ++i) f += prob_[i] * g_[i];
    return f;
  }

  /// f(S) with support[i] moved to p. Only the moved point and its right
  /// neighbour are re-checked: the rest passed at reset(). support[i] and
  /// the cache are restored before returning.
  [[nodiscard]] double probe(std::vector<double>& support, std::size_t i,
                             double p) {
    const double kept_p = support[i];
    const double kept_e = e_[i];
    const double kept_g = g_[i];
    support[i] = p;
    check_support_point(support, i);
    if (i + 1 < support.size()) check_support_point(support, i + 1);
    set(i, p);
    const double f = loss();
    support[i] = kept_p;
    e_[i] = kept_e;
    g_[i] = kept_g;
    return f;
  }

 private:
  void set(std::size_t i, double p) {
    e_[i] = std::max(curves_.damage(p), damage_floor_);
    g_[i] = curves_.cost(p);
  }

  const PayoffCurves& curves_;
  double budget_;
  double damage_floor_;
  std::vector<double> e_;
  std::vector<double> g_;
  std::vector<double> prob_;
};

}  // namespace

std::vector<double> find_percentages(const PayoffCurves& curves,
                                     const std::vector<double>& support,
                                     double damage_floor) {
  check_support(support);
  // E evaluated on the support, floored so ratios stay finite.
  std::vector<double> e(support.size());
  for (std::size_t i = 0; i < support.size(); ++i) {
    e[i] = std::max(curves.damage(support[i]), damage_floor);
  }
  std::vector<double> prob(support.size());
  indifference_probabilities(e, prob);
  return prob;
}

double defender_objective(const PoisoningGame& game,
                          const std::vector<double>& support,
                          double damage_floor) {
  SupportValues values(game, damage_floor, support.size());
  values.reset(support);
  return values.loss();
}

std::vector<double> choose_initial_support(const PoisoningGame& game,
                                           std::size_t n,
                                           double damage_floor) {
  PG_CHECK(n >= 1, "support size must be >= 1");
  const double hi = game.curves().damage_support_limit(damage_floor);
  PG_CHECK(hi > 0.0, "no profitable placement region (E <= floor everywhere)");
  std::vector<double> s(n);
  // Spread over (0, hi]: avoid 0 itself (a zero-strength filter never
  // removes anything and only weakens the mixture).
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = hi * static_cast<double>(i + 1) / static_cast<double>(n);
  }
  return s;
}

DefenseSolution compute_optimal_defense(const PoisoningGame& game,
                                        const Algorithm1Config& config,
                                        runtime::Executor* executor) {
  (void)executor;  // the descent is serial; see equilibrium.h
  static obs::Timer& timer = obs::timer("obs.stage.solve");
  const obs::ScopedTimer timed(timer);
  obs::Span span("algorithm1", "solver");
  PG_CHECK(config.support_size >= 1, "support_size must be >= 1");
  PG_CHECK(config.epsilon > 0.0, "epsilon must be > 0");
  PG_CHECK(config.learning_rate > 0.0, "learning_rate must be > 0");
  PG_CHECK(config.fd_step > 0.0, "fd_step must be > 0");

  const double hi =
      game.curves().damage_support_limit(config.damage_floor);
  const double lo = std::max(config.support_floor, config.min_gap);
  PG_CHECK(hi > lo + config.min_gap * static_cast<double>(config.support_size),
           "profitable region too small for the requested support size");

  std::vector<double> support =
      choose_initial_support(game, config.support_size, config.damage_floor);
  project_support(support, lo, hi, config.min_gap);

  // Set-up allocates the cache and the gradient; probes and resets below
  // allocate nothing (only the trace grows).
  SupportValues values(game, config.damage_floor, support.size());
  std::vector<double> grad(support.size());

  DefenseSolution sol{defense::MixedDefenseStrategy::pure(0.0), 0.0, {}, 0,
                      false};
  values.reset(support);
  double f_prev = values.loss();
  sol.trace.push_back(f_prev);

  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    // Finite-difference gradient d f / d S_r, serially: supports have
    // 1-5 points, so the 2n probes cost less than one fork-join would.
    for (std::size_t i = 0; i < support.size(); ++i) {
      const double plus = std::min(support[i] + config.fd_step, hi);
      const double minus =
          std::max(support[i] - config.fd_step, config.min_gap * 0.5);
      const double denom = plus - minus;
      grad[i] = 0.0;
      if (denom <= 0.0) continue;
      const double f_plus = values.probe(support, i, plus);
      grad[i] = (f_plus - values.probe(support, i, minus)) / denom;
    }

    // Descent step with projection (the paper's S_r <- S_r - grad(f)).
    for (std::size_t i = 0; i < support.size(); ++i) {
      support[i] -= config.learning_rate * grad[i];
    }
    project_support(support, lo, hi, config.min_gap);

    values.reset(support);
    const double f = values.loss();
    sol.trace.push_back(f);
    sol.iterations = it + 1;
    if (std::abs(f_prev - f) < config.epsilon) {
      sol.converged = true;
      f_prev = f;
      break;
    }
    f_prev = f;
  }

  const auto prob =
      find_percentages(game.curves(), support, config.damage_floor);
  sol.strategy = defense::MixedDefenseStrategy(support, prob);
  sol.defender_loss = f_prev;
  return sol;
}

}  // namespace pg::core
