// Quickstart: the full poison -> filter -> train -> evaluate loop in ~60
// lines, on a reduced corpus so it runs in seconds.
//
//   $ ./quickstart [seed]
//
// Shows (1) the clean baseline, (2) the damage of an optimal boundary
// attack with no defense, (3) a pure distance filter recovering part of
// the loss, and (4) a hand-written mixed defense doing better against an
// attacker who knows the strategy.
#include <cstdlib>
#include <iostream>

#include "attack/boundary_attack.h"
#include "defense/distance_filter.h"
#include "defense/mixed_defense.h"
#include "defense/pipeline.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  using namespace pg;

  // 1. A Spambase-like corpus, 70/30 split, standardized, 20% poison budget.
  sim::ExperimentConfig cfg = sim::fast_config(seed);
  cfg.corpus.n_instances = 1500;
  cfg.svm.epochs = 120;
  const sim::ExperimentContext ctx = sim::prepare_experiment(cfg);
  std::cout << "corpus: " << ctx.corpus_source << ", train "
            << ctx.train_size() << " / test " << ctx.test_size()
            << ", poison budget N = " << ctx.poison_budget << "\n\n";

  const defense::Pipeline pipeline({cfg.svm});
  util::Rng rng(seed);

  // 2. Clean baseline (no attack, no filter).
  util::Rng r0 = rng.fork(0);
  const double clean =
      pipeline.run(ctx.train(), ctx.test(), nullptr, 0, nullptr, r0)
          .test_accuracy;

  // 3. Optimal boundary attack, undefended.
  attack::BoundaryAttackConfig acfg;
  acfg.placement_fraction = 0.0;  // at the outer boundary: maximal damage
  const attack::BoundaryAttack attack(acfg);
  util::Rng r1 = rng.fork(1);
  const double attacked =
      pipeline
          .run(ctx.train(), ctx.test(), &attack, ctx.poison_budget, nullptr, r1)
          .test_accuracy;

  // 4. Pure distance filter at 10% removal; the attacker knows it and
  //    places the poison just inside (placement = 0.10).
  defense::DistanceFilterConfig fcfg;
  fcfg.removal_fraction = 0.10;
  const defense::DistanceFilter pure_filter(fcfg);
  attack::BoundaryAttackConfig inside_cfg;
  inside_cfg.placement_fraction = 0.10;
  const attack::BoundaryAttack inside_attack(inside_cfg);
  util::Rng r2 = rng.fork(2);
  const double pure_defended =
      pipeline
          .run(ctx.train(), ctx.test(), &inside_attack, ctx.poison_budget,
               &pure_filter, r2)
          .test_accuracy;

  // 5. A mixed defense over {8%, 16%}: the attacker can only target one
  //    boundary; the other draw filters the poison out. The Table-1
  //    harness plays an attacker at each support boundary and reports the
  //    accuracy of the worst one.
  const defense::MixedDefenseStrategy mix({0.08, 0.16}, {0.5, 0.5});
  const double mixed_defended =
      sim::evaluate_mixed_defense(ctx, mix, {}).adversarial_accuracy;

  util::TextTable table({"scenario", "test accuracy"});
  table.add_row({"clean (no attack, no filter)", util::format_percent(clean)});
  table.add_row({"optimal attack, no defense", util::format_percent(attacked)});
  table.add_row({"optimal attack vs pure filter (10%)",
                 util::format_percent(pure_defended)});
  table.add_row({"optimal attack vs mixed filter {8%,16%}",
                 util::format_percent(mixed_defended)});
  std::cout << table.str();
  return 0;
}
