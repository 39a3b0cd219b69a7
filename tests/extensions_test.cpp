// Tests for the extension modules beyond the paper's core results:
// attacker-side equilibrium extraction and the cross-dataset payoff-curve
// transfer experiment (the paper's stated future work).
#include <gtest/gtest.h>

#include <cmath>

#include "core/attacker_equilibrium.h"
#include "core/equilibrium.h"
#include "core/game_model.h"
#include "sim/transfer.h"

namespace pg {
namespace {

core::PoisoningGame analytic_game() {
  return core::PoisoningGame(
      core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4), 100);
}

// ----------------------------------------------------- attacker equilibria

TEST(AttackerEquilibriumTest, LpRouteProducesDistribution) {
  const auto game = analytic_game();
  const auto eq = core::attacker_equilibrium_lp(game, 96);
  const auto& probs = eq.strategy.probabilities();
  double total = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GE(eq.strategy.placements().size(), 2u)
      << "no pure NE => attacker must mix";
}

TEST(AttackerEquilibriumTest, LpValueMatchesDefenderLoss) {
  const auto game = analytic_game();
  const auto atk = core::attacker_equilibrium_lp(game, 128);
  core::Algorithm1Config cfg;
  cfg.support_size = 5;
  const auto def = core::compute_optimal_defense(game, cfg);
  // Zero-sum: the attacker's equilibrium payoff equals the defender's
  // equilibrium loss (within discretization error of both routes).
  EXPECT_NEAR(atk.game_value, def.defender_loss,
              0.15 * std::abs(def.defender_loss) + 5e-3);
}

TEST(AttackerEquilibriumTest, StructuralRouteProducesDistribution) {
  const auto game = analytic_game();
  core::Algorithm1Config cfg;
  cfg.support_size = 3;
  const auto def = core::compute_optimal_defense(game, cfg);
  const auto eq = core::attacker_equilibrium_structural(game, def.strategy);
  const auto& probs = eq.strategy.probabilities();
  ASSERT_EQ(probs.size(), 3u);
  double total = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, -1e-12);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Support placements coincide with the defender's support.
  EXPECT_EQ(eq.strategy.placements(), def.strategy.removal_fractions());
}

TEST(AttackerEquilibriumTest, StructuralValueMatchesAlgorithm1) {
  const auto game = analytic_game();
  core::Algorithm1Config cfg;
  cfg.support_size = 3;
  const auto def = core::compute_optimal_defense(game, cfg);
  const auto eq = core::attacker_equilibrium_structural(game, def.strategy);
  EXPECT_NEAR(eq.game_value, def.defender_loss, 1e-9);
}

TEST(AttackerEquilibriumTest, StructuralRequiresMixedDefender) {
  const auto game = analytic_game();
  EXPECT_THROW((void)core::attacker_equilibrium_structural(
                   game, defense::MixedDefenseStrategy::pure(0.2)),
               std::invalid_argument);
}

TEST(AttackerEquilibriumTest, RoutesAgreeOnSupportRegion) {
  // Both routes concentrate the attacker's mass on the same region of the
  // placement axis: compare their mean placements.
  const auto game = analytic_game();
  core::Algorithm1Config cfg;
  cfg.support_size = 5;
  const auto def = core::compute_optimal_defense(game, cfg);
  const auto lp = core::attacker_equilibrium_lp(game, 128);
  const auto st = core::attacker_equilibrium_structural(game, def.strategy);
  auto mean_placement = [](const attack::MixedAttackStrategy& s) {
    double m = 0.0;
    for (std::size_t i = 0; i < s.placements().size(); ++i) {
      m += s.placements()[i] * s.probabilities()[i];
    }
    return m;
  };
  EXPECT_NEAR(mean_placement(lp.strategy), mean_placement(st.strategy), 0.12);
}

// ----------------------------------------------------------- curve transfer

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
