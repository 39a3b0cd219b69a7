// Unit and property tests for pg::ml -- linear models, the hinge-loss SVM
// trainer, metrics, and cross validation.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "ml/linear_model.h"
#include "ml/metrics.h"
#include "la/vector_ops.h"
#include "ml/svm.h"

namespace pg::ml {
namespace {

data::Dataset separable_blobs(std::size_t n, std::uint64_t seed,
                              double sep = 6.0) {
  util::Rng rng(seed);
  return data::make_gaussian_blobs(n, 4, sep, rng);
}

// --------------------------------------------------------- linear_model.h

TEST(LinearModelTest, DecisionFunctionAndPredict) {
  const LinearModel m({1.0, -2.0}, 0.5);
  EXPECT_DOUBLE_EQ(m.decision_function({2.0, 1.0}), 0.5);
  EXPECT_EQ(m.predict({2.0, 1.0}), 1);
  EXPECT_EQ(m.predict({0.0, 1.0}), -1);
}

TEST(LinearModelTest, MarginSign) {
  const LinearModel m({1.0, 0.0}, 0.0);
  EXPECT_DOUBLE_EQ(m.margin({2.0, 0.0}, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.margin({2.0, 0.0}, -1), -2.0);
}

TEST(LinearModelTest, DistanceToBoundaryGeometric) {
  const LinearModel m({3.0, 4.0}, 0.0);  // ||w|| = 5
  EXPECT_DOUBLE_EQ(m.distance_to_boundary({3.0, 4.0}), 5.0);
}

TEST(LinearModelTest, RejectsEmptyWeights) {
  EXPECT_THROW(LinearModel({}, 0.0), std::invalid_argument);
}

TEST(LinearModelTest, AccuracyOnKnownData) {
  data::Dataset d;
  d.append({1.0}, 1);
  d.append({-1.0}, -1);
  d.append({2.0}, -1);  // misclassified by w=1,b=0
  const LinearModel m({1.0}, 0.0);
  EXPECT_NEAR(m.accuracy(d), 2.0 / 3.0, 1e-12);
}

// ------------------------------------------------------------------ svm.h

TEST(SvmTest, LearnsSeparableProblem) {
  const data::Dataset d = separable_blobs(400, 1);
  SvmConfig cfg;
  cfg.epochs = 50;
  util::Rng rng(2);
  const LinearModel m = SvmTrainer(cfg).train(d, rng);
  EXPECT_GT(m.accuracy(d), 0.97);
}

TEST(SvmTest, WeightsPointAcrossClasses) {
  const data::Dataset d = separable_blobs(400, 3);
  SvmConfig cfg;
  cfg.epochs = 50;
  util::Rng rng(4);
  const LinearModel m = SvmTrainer(cfg).train(d, rng);
  // Class +1 is at +x on axis 0, so w[0] must be positive.
  EXPECT_GT(m.weights()[0], 0.0);
}

TEST(SvmTest, DeterministicGivenSeed) {
  const data::Dataset d = separable_blobs(200, 5);
  SvmConfig cfg;
  cfg.epochs = 20;
  util::Rng r1(7);
  util::Rng r2(7);
  const LinearModel a = SvmTrainer(cfg).train(d, r1);
  const LinearModel b = SvmTrainer(cfg).train(d, r2);
  for (std::size_t i = 0; i < a.dim(); ++i) {
    EXPECT_DOUBLE_EQ(a.weights()[i], b.weights()[i]);
  }
  EXPECT_DOUBLE_EQ(a.bias(), b.bias());
}

TEST(SvmTest, MoreEpochsDoNotHurtObjective) {
  const data::Dataset d = separable_blobs(300, 9, 2.0);
  util::Rng r1(11);
  util::Rng r2(11);
  SvmConfig few;
  few.epochs = 3;
  SvmConfig many;
  many.epochs = 100;
  const double obj_few =
      hinge_objective(SvmTrainer(few).train(d, r1), d, few.lambda);
  const double obj_many =
      hinge_objective(SvmTrainer(many).train(d, r2), d, many.lambda);
  EXPECT_LE(obj_many, obj_few + 0.05);
}

TEST(SvmTest, HingeLossZeroForLargeMargins) {
  data::Dataset d;
  d.append({10.0}, 1);
  d.append({-10.0}, -1);
  const LinearModel m({1.0}, 0.0);
  EXPECT_DOUBLE_EQ(hinge_loss(m, d), 0.0);
}

TEST(SvmTest, HingeLossLinearInViolation) {
  data::Dataset d;
  d.append({0.0}, 1);  // margin 0 -> loss 1
  const LinearModel m({1.0}, 0.0);
  EXPECT_DOUBLE_EQ(hinge_loss(m, d), 1.0);
}

TEST(SvmTest, ObjectiveIncludesRegularizer) {
  data::Dataset d;
  d.append({10.0}, 1);
  const LinearModel m({2.0}, 0.0);
  EXPECT_NEAR(hinge_objective(m, d, 0.5), 0.5 * 0.5 * 4.0, 1e-12);
}

TEST(SvmTest, RejectsBadConfig) {
  EXPECT_THROW(SvmTrainer({.epochs = 0, .lambda = 1e-4, .average = true}),
               std::invalid_argument);
  EXPECT_THROW(SvmTrainer({.epochs = 1, .lambda = 0.0, .average = true}),
               std::invalid_argument);
}

TEST(SvmTest, RejectsEmptyTrainingSet) {
  SvmConfig cfg;
  util::Rng rng(1);
  EXPECT_THROW((void)SvmTrainer(cfg).train(data::Dataset{}, rng),
               std::invalid_argument);
}

TEST(SvmTest, AveragingChangesButDoesNotBreakModel) {
  const data::Dataset d = separable_blobs(200, 13);
  SvmConfig avg;
  avg.epochs = 30;
  avg.average = true;
  SvmConfig last;
  last.epochs = 30;
  last.average = false;
  util::Rng r1(17);
  util::Rng r2(17);
  const LinearModel ma = SvmTrainer(avg).train(d, r1);
  const LinearModel ml = SvmTrainer(last).train(d, r2);
  EXPECT_GT(ma.accuracy(d), 0.95);
  EXPECT_GT(ml.accuracy(d), 0.95);
}

TEST(SvmTest, SingleClassDataDoesNotCrash) {
  data::Dataset d;
  for (int i = 0; i < 20; ++i) {
    d.append({static_cast<double>(i), 1.0}, 1);
  }
  SvmConfig cfg;
  cfg.epochs = 5;
  util::Rng rng(19);
  const LinearModel m = SvmTrainer(cfg).train(d, rng);
  EXPECT_EQ(m.accuracy(d), 1.0);  // everything classified +1
}

/// SvmTrainer::train as two passes over the weights per step: sum the
/// score, then apply the update. The trainer fuses the update with the
/// next sample's score; every model must match this loop bit for bit.
LinearModel two_pass_reference(const data::Dataset& train,
                               const SvmConfig& config, util::Rng& rng) {
  const std::size_t n = train.size();
  const std::size_t d = train.dim();
  la::Vector w(d, 0.0);
  double b = 0.0;
  la::Vector w_avg(d, 0.0);
  double b_avg = 0.0;
  std::size_t avg_count = 0;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::size_t t = 0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t k = 0; k < n; ++k) {
      ++t;
      const std::size_t i = order[k];
      const auto x = train.features().row(i);
      const double yi = static_cast<double>(train.label(i));
      double score = b;
      for (std::size_t c = 0; c < d; ++c) score += w[c] * x[c];
      const double eta = 1.0 / (config.lambda * static_cast<double>(t) + 1.0);
      const double decay = 1.0 - eta * config.lambda;
      if (yi * score < 1.0) {
        const double step = eta * yi;
        for (std::size_t c = 0; c < d; ++c) w[c] = decay * w[c] + step * x[c];
        b += step;
      } else {
        for (std::size_t c = 0; c < d; ++c) w[c] *= decay;
      }
    }
    if (config.average && epoch >= config.epochs / 2) {
      la::axpy(1.0, w, w_avg);
      b_avg += b;
      ++avg_count;
    }
  }
  if (config.average && avg_count > 0) {
    la::scale(w_avg, 1.0 / static_cast<double>(avg_count));
    return LinearModel(std::move(w_avg),
                       b_avg / static_cast<double>(avg_count));
  }
  return LinearModel(std::move(w), b);
}

TEST(SvmTest, FusedStepMatchesTwoPassReference) {
  std::vector<std::pair<std::string, data::Dataset>> sets;
  for (const std::size_t dim : {1, 7, 57}) {
    util::Rng rng(100 + dim);
    // Overlapping blobs: some steps violate the margin, some decay only.
    sets.emplace_back("blobs d=" + std::to_string(dim),
                      data::make_gaussian_blobs(60, dim, 1.5, rng));
  }
  {
    // n = 1: the next row is the current row at every step.
    data::Dataset one;
    one.append({0.5, -2.0, 3.0}, -1);
    sets.emplace_back("n=1", std::move(one));
  }
  {
    data::Dataset two;
    two.append({1.0, 0.25}, 1);
    two.append({-0.75, 2.0}, -1);
    sets.emplace_back("n=2", std::move(two));
  }
  {
    data::Dataset one_class;
    for (int i = 0; i < 9; ++i) {
      one_class.append({static_cast<double>(i), 1.0, -0.5 * i}, 1);
    }
    sets.emplace_back("one class", std::move(one_class));
  }
  {
    // All-zero rows: every score is exactly the bias.
    data::Dataset zeros;
    for (int i = 0; i < 8; ++i) {
      zeros.append(la::Vector(5, 0.0), i % 3 == 0 ? -1 : 1);
    }
    sets.emplace_back("zero rows", std::move(zeros));
  }

  // Epochs 1, 2 and 25, averaging on and off, the default lambda and one
  // whose decay is far from 1.
  std::vector<SvmConfig> configs;
  for (const std::size_t epochs : {1, 2, 25}) {
    for (const bool average : {true, false}) {
      for (const double lambda : {1e-4, 1e-2}) {
        configs.push_back(
            {.epochs = epochs, .lambda = lambda, .average = average});
      }
    }
  }
  for (const auto& [name, d] : sets) {
    for (const SvmConfig& cfg : configs) {
      for (const std::uint64_t seed : {3, 29, 4242}) {
        SCOPED_TRACE(name + " epochs=" + std::to_string(cfg.epochs) +
                     " average=" + std::to_string(cfg.average) +
                     " lambda=" + std::to_string(cfg.lambda) +
                     " seed=" + std::to_string(seed));
        util::Rng fused_rng(seed);
        util::Rng reference_rng(seed);
        const LinearModel fused = SvmTrainer(cfg).train(d, fused_rng);
        const LinearModel reference =
            two_pass_reference(d, cfg, reference_rng);
        ASSERT_EQ(fused.dim(), reference.dim());
        for (std::size_t c = 0; c < fused.dim(); ++c) {
          EXPECT_EQ(fused.weights()[c], reference.weights()[c]) << c;
        }
        EXPECT_EQ(fused.bias(), reference.bias());
        // Both consumed the same draws.
        EXPECT_EQ(fused_rng.uniform(), reference_rng.uniform());
      }
    }
  }
}

// --------------------------------------------------------------- metrics.h

TEST(MetricsTest, ConfusionCountsAndDerived) {
  data::Dataset d;
  d.append({1.0}, 1);    // predicted +1: TP
  d.append({-1.0}, 1);   // predicted -1: FN
  d.append({-1.0}, -1);  // predicted -1: TN
  d.append({1.0}, -1);   // predicted +1: FP
  const LinearModel m({1.0}, 0.0);
  const ConfusionMatrix cm = evaluate(m, d);
  EXPECT_EQ(cm.true_positive, 1u);
  EXPECT_EQ(cm.false_negative, 1u);
  EXPECT_EQ(cm.true_negative, 1u);
  EXPECT_EQ(cm.false_positive, 1u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.5);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.5);
  EXPECT_DOUBLE_EQ(cm.f1(), 0.5);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.5);
}

TEST(MetricsTest, DegenerateDenominatorsReturnZero) {
  ConfusionMatrix cm;
  cm.true_negative = 5;
  EXPECT_DOUBLE_EQ(cm.precision(), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 0.0);
}

TEST(MetricsTest, AccuracyHelperMatchesModelAccuracy) {
  const data::Dataset d = separable_blobs(100, 31);
  const LinearModel m({1.0, 0.0, 0.0, 0.0}, 0.0);
  EXPECT_DOUBLE_EQ(accuracy(m, d), m.accuracy(d));
}

}  // namespace
}  // namespace pg::ml
