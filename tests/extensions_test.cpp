// Tests for the cross-dataset payoff-curve transfer experiment (the
// paper's stated future work).
#include <gtest/gtest.h>

#include "sim/transfer.h"

namespace pg {
namespace {

TEST(TransferTest, CurvesGeneralizeAcrossSeeds) {
  // Same generator, different seed: the conjectured generalized E/Gamma
  // should transfer with a near-zero gap.
  sim::ExperimentConfig a = sim::fast_config(42);
  a.corpus.n_instances = 700;
  a.svm.epochs = 50;
  sim::ExperimentConfig b = a;
  b.seed = 1042;

  const auto source = sim::prepare_experiment(a);
  const auto target = sim::prepare_experiment(b);
  sim::TransferConfig cfg;
  cfg.eval.draws = 1;
  const auto result = sim::run_transfer_experiment(
      sim::solve_transfer_strategy(source, cfg), target, cfg);

  EXPECT_GT(result.transferred_accuracy, 0.45);
  EXPECT_GT(result.native_accuracy, 0.45);
  // Transfer should cost little relative to solving natively.
  EXPECT_GT(result.transfer_gap, -0.12);
}

TEST(TransferTest, StrategiesAreValidMixtures) {
  sim::ExperimentConfig a = sim::fast_config(7);
  a.corpus.n_instances = 600;
  a.svm.epochs = 40;
  sim::ExperimentConfig b = a;
  b.seed = 99;
  const auto source = sim::prepare_experiment(a);
  const auto target = sim::prepare_experiment(b);
  sim::TransferConfig cfg;
  cfg.eval.draws = 1;
  cfg.support_size = 2;
  const auto result = sim::run_transfer_experiment(
      sim::solve_transfer_strategy(source, cfg), target, cfg);
  EXPECT_EQ(result.source_strategy.support_size(), 2u);
  EXPECT_EQ(result.native_strategy.support_size(), 2u);
  EXPECT_TRUE(result.source_strategy.is_properly_mixed());
}

}  // namespace
}  // namespace pg
