#include "sim/support_sweep.h"

#include "runtime/payoff_evaluator.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace pg::sim {

std::vector<SupportSweepRow> run_support_sweep(
    const ExperimentContext& ctx, const core::PoisoningGame& game,
    std::size_t min_n, std::size_t max_n,
    const core::Algorithm1Config& base_config, const MixedEvalConfig& eval,
    const runtime::PayoffEvaluator& evaluator) {
  PG_CHECK(min_n >= 1 && min_n <= max_n, "needs 1 <= min_n <= max_n");

  std::vector<SupportSweepRow> rows;
  for (std::size_t n = min_n; n <= max_n; ++n) {
    core::Algorithm1Config cfg = base_config;
    cfg.support_size = n;

    util::Stopwatch watch;
    const core::DefenseSolution sol = solve_defense(game, cfg, evaluator);
    const double seconds = watch.elapsed_seconds();

    const MixedEvalResult ev =
        evaluate_mixed_defense(ctx, sol.strategy, eval, evaluator);
    rows.push_back({n, sol.strategy, sol.defender_loss,
                    ev.adversarial_accuracy, seconds, sol.iterations});
  }
  return rows;
}

}  // namespace pg::sim
