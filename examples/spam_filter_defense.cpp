// End-to-end reproduction of the paper's experimental pipeline on one
// (reduced) corpus: sweep pure strategies, fit E/Gamma, run Algorithm 1,
// and evaluate the resulting mixed defense against the optimal attack.
//
//   $ ./spam_filter_defense [seed] [n_instances]
//
// This is the "spam filter operator" scenario the paper's introduction
// motivates: an inbox provider whose training pipeline ingests user-
// reported mail that an adversary can partially control.
#include <cstdlib>
#include <iostream>

#include "core/equilibrium.h"
#include "core/game_model.h"
#include "core/ne_properties.h"
#include "sim/curve_fit.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pg;
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  const std::size_t n_instances =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1500;

  sim::ExperimentConfig cfg = sim::fast_config(seed);
  cfg.corpus.n_instances = n_instances;
  cfg.svm.epochs = 120;
  const sim::ExperimentContext ctx = sim::prepare_experiment(cfg);
  std::cout << "corpus=" << ctx.corpus_source << " train=" << ctx.train_size()
            << " test=" << ctx.test_size() << " N=" << ctx.poison_budget
            << " clean accuracy=" << util::format_percent(ctx.clean_accuracy)
            << "\n\n";

  // 1. Pure-strategy sweep (Fig. 1 of the paper).
  std::cout << "[1/3] sweeping pure filter strengths...\n";
  const auto grid = sim::sweep_grid(0.40, 9);
  const auto sweep = sim::run_pure_sweep(ctx, grid, 2);
  util::TextTable fig1({"removed", "acc (no attack)", "acc (attacked)"});
  for (const auto& pt : sweep.points) {
    fig1.add_row({util::format_percent(pt.removal_fraction),
                  util::format_percent(pt.accuracy_no_attack),
                  util::format_percent(pt.accuracy_attacked)});
  }
  std::cout << fig1.str() << "\n";

  const auto pure_best = sim::best_pure_defense(sweep);
  std::cout << "best pure defense: remove "
            << util::format_percent(pure_best.best_fraction) << " -> "
            << util::format_percent(pure_best.best_accuracy)
            << " under optimal attack\n\n";

  // 2. Fit E(p)/Gamma(p) and solve for the mixed equilibrium defense.
  std::cout << "[2/3] fitting payoff curves, running Algorithm 1 (n=3)...\n";
  const core::PayoffCurves curves = sim::fit_payoff_curves(sweep);
  const core::PoisoningGame game(curves, ctx.poison_budget);
  core::Algorithm1Config acfg;
  acfg.support_size = 3;
  const core::DefenseSolution sol = core::compute_optimal_defense(game, acfg);
  std::cout << "mixed strategy: " << sol.strategy.describe()
            << "  (predicted defender loss "
            << util::format_percent(sol.defender_loss) << ")\n";

  const auto indiff = core::check_indifference(game, sol.strategy, 1e-3);
  std::cout << "NE conditions: properly mixed="
            << (indiff.properly_mixed ? "yes" : "no")
            << ", attacker-indifferent spread="
            << util::format_double(indiff.relative_spread, 6) << "\n\n";

  // 3. Evaluate the mixed defense against the optimal attacker.
  std::cout << "[3/3] evaluating mixed defense on the testbed...\n";
  sim::MixedEvalConfig ecfg;
  ecfg.draws = 3;
  const auto eval = sim::evaluate_mixed_defense(ctx, sol.strategy, ecfg);
  util::TextTable t1({"attacker placement", "expected accuracy"});
  for (std::size_t i = 0; i < eval.attacker_placements.size(); ++i) {
    t1.add_row({util::format_percent(eval.attacker_placements[i]),
                util::format_percent(eval.accuracy_by_placement[i])});
  }
  std::cout << t1.str() << "\n";
  std::cout << "mixed defense adversarial accuracy: "
            << util::format_percent(eval.adversarial_accuracy) << "\n";
  std::cout << "best pure defense accuracy:         "
            << util::format_percent(pure_best.best_accuracy) << "\n";
  std::cout << (eval.adversarial_accuracy > pure_best.best_accuracy
                    ? "=> mixed strategy wins (paper's Table 1 claim)\n"
                    : "=> mixed strategy did not win on this run/seed\n");
  return 0;
}
