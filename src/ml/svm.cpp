#include "ml/svm.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace pg::ml {

double hinge_loss(const LinearModel& model, const data::Dataset& d) {
  PG_CHECK(!d.empty(), "hinge_loss on empty dataset");
  double total = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    total += std::max(0.0, 1.0 - model.margin(d.instance(i), d.label(i)));
  }
  return total / static_cast<double>(d.size());
}

double hinge_objective(const LinearModel& model, const data::Dataset& d,
                       double lambda) {
  PG_CHECK(lambda > 0.0, "lambda must be positive");
  return 0.5 * lambda * la::squared_norm(model.weights()) +
         hinge_loss(model, d);
}

SvmTrainer::SvmTrainer(SvmConfig config) : config_(config) {
  PG_CHECK(config_.epochs >= 1, "SvmConfig: epochs must be >= 1");
  PG_CHECK(config_.lambda > 0.0, "SvmConfig: lambda must be > 0");
}

LinearModel SvmTrainer::train(const data::Dataset& train,
                              util::Rng& rng) const {
  static obs::Timer& timer = obs::timer("obs.stage.train");
  const obs::ScopedTimer timed(timer);
  // The SGD solve is the inner "solver" of every payoff cell; tracing it
  // under the same category as the game solvers makes retrain cost
  // directly comparable to equilibrium cost in one trace.
  obs::Span span("sgd_svm", "solver");
  PG_CHECK(!train.empty(), "SvmTrainer: empty training set");
  const std::size_t n = train.size();
  const std::size_t d = train.dim();
  const double lambda = config_.lambda;

  la::Vector w(d, 0.0);
  double b = 0.0;

  // Polyak averaging over the second half of training.
  la::Vector w_avg(d, 0.0);
  double b_avg = 0.0;
  std::size_t avg_count = 0;
  const std::size_t avg_start_epoch = config_.epochs / 2;

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  const double* X = train.features().data().data();  // row i at X + i*d
  const auto& y = train.labels();

  // This loop is retrained once per payoff cell -- millions of times over
  // a sweep grid -- so each step makes one pass over the weights: the pass
  // that applies step t's update also sums step t+1's score from the
  // updated bias and weights. That score keeps a single accumulator
  // advancing left to right, the same products and additions in the same
  // order as a separate dot product after the update, because
  // reassociating it would move trained accuracies and break the golden
  // baselines. Each epoch scores its first sample on its own after the
  // shuffle, and its last step scores its own row again: nothing reads
  // that score.
  double* wp = w.data();
  std::size_t t = 0;  // global step counter (1-based in the update)
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    const double* xp = X + order[0] * d;
    double score = b;
    for (std::size_t c = 0; c < d; ++c) score += wp[c] * xp[c];
    for (std::size_t k = 0; k < n; ++k) {
      ++t;
      const double yi = static_cast<double>(y[order[k]]);
      const double* xn = k + 1 < n ? X + order[k + 1] * d : xp;
      // Pegasos rate with a t0 = 1/lambda warm-start offset: the textbook
      // eta_t = 1/(lambda*t) opens at eta_1 = 1/lambda (10^4 for the
      // default lambda), which catapults the unregularized bias and costs
      // hundreds of epochs to undo; the offset caps eta at 1 while
      // preserving the O(1/t) asymptotics.
      const double eta = 1.0 / (lambda * static_cast<double>(t) + 1.0);
      const double decay = 1.0 - eta * lambda;
      if (yi * score < 1.0) {
        const double step = eta * yi;
        b += step;  // bias unregularized
        score = b;
        for (std::size_t c = 0; c < d; ++c) {
          wp[c] = decay * wp[c] + step * xp[c];
          score += wp[c] * xn[c];
        }
      } else {
        score = b;
        for (std::size_t c = 0; c < d; ++c) {
          wp[c] *= decay;
          score += wp[c] * xn[c];
        }
      }
      xp = xn;
    }
    if (config_.average && epoch >= avg_start_epoch) {
      la::axpy(1.0, w, w_avg);
      b_avg += b;
      ++avg_count;
    }
  }

  if (config_.average && avg_count > 0) {
    la::scale(w_avg, 1.0 / static_cast<double>(avg_count));
    return LinearModel(std::move(w_avg),
                       b_avg / static_cast<double>(avg_count));
  }
  return LinearModel(std::move(w), b);
}

}  // namespace pg::ml
