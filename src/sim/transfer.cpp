#include "sim/transfer.h"

#include "runtime/payoff_evaluator.h"
#include "util/error.h"
#include "util/logging.h"

namespace pg::sim {

defense::MixedDefenseStrategy solve_transfer_strategy(
    const ExperimentContext& ctx, const TransferConfig& config,
    const runtime::PayoffEvaluator& evaluator) {
  PG_CHECK(ctx.train_size() > 0, "transfer requires a prepared context");
  const auto sweep = run_pure_sweep(ctx, config.sweep_fractions,
                                    config.sweep_replications, evaluator);
  const auto curves = fit_payoff_curves(sweep);
  const core::PoisoningGame game(curves, ctx.poison_budget);
  core::Algorithm1Config acfg;
  acfg.support_size = config.support_size;
  return solve_defense(game, acfg, evaluator).strategy;
}

TransferResult run_transfer_experiment(
    const defense::MixedDefenseStrategy& source_strategy,
    const ExperimentContext& target, const TransferConfig& config,
    const runtime::PayoffEvaluator& evaluator) {
  TransferResult result{source_strategy,
                        solve_transfer_strategy(target, config, evaluator),
                        0.0, 0.0, 0.0};
  util::log_info() << "source strategy " << result.source_strategy.describe()
                   << " | native strategy "
                   << result.native_strategy.describe();

  result.transferred_accuracy =
      evaluate_mixed_defense(target, result.source_strategy, config.eval,
                             evaluator)
          .adversarial_accuracy;
  result.native_accuracy =
      evaluate_mixed_defense(target, result.native_strategy, config.eval,
                             evaluator)
          .adversarial_accuracy;
  result.transfer_gap =
      result.transferred_accuracy - result.native_accuracy;
  return result;
}

}  // namespace pg::sim
