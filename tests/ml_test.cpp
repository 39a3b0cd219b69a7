// Unit and property tests for pg::ml -- linear models, the hinge-loss SVM
// trainer, metrics, and cross validation.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "ml/linear_model.h"
#include "ml/metrics.h"
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
