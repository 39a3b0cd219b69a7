#include "scenario/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/boundary_attack.h"
#include "attack/label_flip.h"
#include "attack/noise_attack.h"
#include "core/equilibrium.h"
#include "core/game_model.h"
#include "core/ne_properties.h"
#include "data/dataset.h"
#include "defense/centroid.h"
#include "defense/distance_filter.h"
#include "defense/knn_filter.h"
#include "defense/pca_filter.h"
#include "defense/pipeline.h"
#include "defense/roni.h"
#include "game/best_response.h"
#include "game/solvers.h"
#include "la/simd.h"
#include "la/vector_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/atomic_file.h"
#include "runtime/executor.h"
#include "runtime/payoff_disk_cache.h"
#include "runtime/payoff_evaluator.h"
#include "scenario/cache_bundle.h"
#include "scenario/sweep.h"
#include "sim/curve_fit.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"
#include "sim/support_sweep.h"
#include "sim/transfer.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace pg::scenario {

namespace {

sim::ExperimentConfig experiment_config(const ScenarioSpec& spec) {
  sim::ExperimentConfig cfg;
  cfg.seed = spec.seed;
  cfg.corpus.n_instances = spec.instances;
  cfg.corpus.class_separation = spec.class_separation;
  cfg.svm.epochs = spec.epochs;
  cfg.train_fraction = spec.train_fraction;
  cfg.poison_fraction = spec.poison_fraction;
  cfg.try_real_corpus = spec.real_corpus;
  return cfg;
}

void add_context_metrics(const sim::ExperimentContext& ctx,
                         ScenarioResult& result) {
  result.add_metric("corpus_source", ctx.corpus_source);
  result.add_metric("instances", ctx.train_size() + ctx.test_size());
  result.add_metric("train_size", ctx.train_size());
  result.add_metric("test_size", ctx.test_size());
  result.add_metric("poison_budget", ctx.poison_budget);
  result.add_metric("clean_accuracy", ctx.clean_accuracy);
}

/// prepare_experiment with the clean baseline on the context's evaluator,
/// memoized in its shard and counted like any other cell.
sim::ExperimentContext prepare_context(const sim::ExperimentConfig& cfg,
                                       CacheBundle& bundle) {
  return sim::prepare_experiment(
      cfg, [&bundle](std::uint64_t key) -> const runtime::PayoffEvaluator& {
        return bundle.evaluator(key);
      });
}


ResultTable sweep_table(const sim::PureSweepResult& sweep) {
  ResultTable table{"pure_sweep",
                    {"removal_fraction", "accuracy_no_attack",
                     "accuracy_attacked", "poison_survived_fraction"},
                    {}};
  for (const auto& pt : sweep.points) {
    table.add_row({pt.removal_fraction, pt.accuracy_no_attack,
                   pt.accuracy_attacked, pt.poison_survived_fraction});
  }
  return table;
}

// ------------------------------------------------------------- pure_sweep
// fig1: the Fig.-1 sweep plus fitted payoff curves.
void run_pure_sweep_scenario(const ScenarioSpec& spec, CacheBundle& bundle,
                             ScenarioResult& result) {
  const sim::ExperimentContext ctx =
      prepare_context(experiment_config(spec), bundle);
  add_context_metrics(ctx, result);

  const auto grid = sim::sweep_grid(spec.sweep_max, spec.sweep_steps);
  const auto sweep = sim::run_pure_sweep(
      ctx, grid, spec.replications, bundle.evaluator(sim::context_key(ctx)));
  result.tables.push_back(sweep_table(sweep));

  const auto best = sim::best_pure_defense(sweep);
  const double majority = std::max(ctx.test_positive_fraction,
                                   1.0 - ctx.test_positive_fraction);
  result.add_metric("majority_floor", majority);
  result.add_metric("attacked_accuracy_no_filter",
                    sweep.points.front().accuracy_attacked);
  result.add_metric("best_pure_fraction", best.best_fraction);
  result.add_metric("best_pure_accuracy", best.best_accuracy);

  const auto curves = sim::fit_payoff_curves(sweep);
  ResultTable fitted{"payoff_curves", {"p", "damage_E", "cost_Gamma"}, {}};
  for (const auto& pt : sweep.points) {
    fitted.add_row({pt.removal_fraction, curves.damage(pt.removal_fraction),
                    curves.cost(pt.removal_fraction)});
  }
  result.tables.push_back(std::move(fitted));
}

// ------------------------------------------------------------ mixed_table
// table1: Algorithm 1 at n in [support_min, support_max],
// empirical mixed evaluation, and the mixed-vs-pure comparison claim.
void run_mixed_table_scenario(const ScenarioSpec& spec, CacheBundle& bundle,
                              ScenarioResult& result) {
  PG_CHECK(spec.support_min >= 1 && spec.support_min <= spec.support_max,
           "mixed_table requires 1 <= support_min <= support_max");
  const sim::ExperimentContext ctx =
      prepare_context(experiment_config(spec), bundle);
  add_context_metrics(ctx, result);
  const runtime::PayoffEvaluator& evaluator =
      bundle.evaluator(sim::context_key(ctx));

  const auto grid = sim::sweep_grid(spec.sweep_max, spec.sweep_steps);
  const auto sweep =
      sim::run_pure_sweep(ctx, grid, spec.replications, evaluator);
  const auto curves = sim::fit_payoff_curves(sweep);
  const core::PoisoningGame game(curves, ctx.poison_budget);
  const auto pure = sim::best_pure_defense(sweep);

  ResultTable strategies{"mixed_strategies",
                         {"n", "removal_fraction", "probability"},
                         {}};
  ResultTable summary{"summary",
                      {"n", "predicted_loss", "converged", "iterations",
                       "properly_mixed", "indifference_spread",
                       "adversarial_accuracy", "no_attack_accuracy"},
                      {}};
  std::optional<core::DefenseSolution> last_solution;
  for (std::size_t n = spec.support_min; n <= spec.support_max; ++n) {
    core::Algorithm1Config acfg;
    acfg.support_size = n;
    const auto sol = sim::solve_defense(game, acfg, evaluator);
    const auto indiff = core::check_indifference(game, sol.strategy, 1e-3);

    sim::MixedEvalConfig ecfg;
    ecfg.draws = spec.draws;
    const auto eval =
        sim::evaluate_mixed_defense(ctx, sol.strategy, ecfg, evaluator);

    for (std::size_t i = 0; i < sol.strategy.support_size(); ++i) {
      strategies.add_row({n, sol.strategy.removal_fractions()[i],
                          sol.strategy.probabilities()[i]});
    }
    summary.add_row({n, sol.defender_loss,
                     static_cast<std::size_t>(sol.converged ? 1 : 0),
                     sol.iterations,
                     static_cast<std::size_t>(indiff.properly_mixed ? 1 : 0),
                     indiff.relative_spread, eval.adversarial_accuracy,
                     eval.no_attack_accuracy});
    last_solution = sol;
  }
  result.tables.push_back(std::move(strategies));
  result.tables.push_back(std::move(summary));

  // The paper's comparison claim: the (largest-n) mixed strategy's
  // predicted loss vs the best pure strategy's.
  double best_pure_predicted = 1e300;
  double best_theta = 0.0;
  for (double theta = 0.0; theta <= spec.sweep_max; theta += 0.0025) {
    const double loss =
        static_cast<double>(ctx.poison_budget) * curves.damage(theta) +
        curves.cost(theta);
    if (loss < best_pure_predicted) {
      best_pure_predicted = loss;
      best_theta = theta;
    }
  }
  result.add_metric("best_pure_theta", best_theta);
  result.add_metric("best_pure_predicted_loss", best_pure_predicted);
  result.add_metric("best_pure_measured_accuracy", pure.best_accuracy);
  result.add_metric("mixed_strategy", last_solution->strategy.describe());
  result.add_metric("mixed_predicted_loss", last_solution->defender_loss);
  result.add_metric(
      "mixed_beats_pure",
      static_cast<std::size_t>(
          last_solution->defender_loss < best_pure_predicted ? 1 : 0));
}

// --------------------------------------------------------------- pure_ne
// prop1: duality gap / saddle scan / best-response cycling
// on measured and analytic curve families, plus a control game.
void run_pure_ne_scenario(const ScenarioSpec& spec, CacheBundle& bundle,
                          ScenarioResult& result) {
  ResultTable games{"games",
                    {"game", "maximin", "minimax", "gap", "saddle_points",
                     "br_moves", "br_steps"},
                    {}};
  const auto report = [&games](const std::string& name,
                               const core::PoisoningGame& game) {
    const auto rep = core::analyze_pure_equilibria(game, 96);
    const auto dynamics = core::best_response_dynamics(game, 0.05, 24);
    std::size_t moves = 0;
    for (std::size_t i = 1; i < dynamics.size(); ++i) {
      if (std::abs(dynamics[i].defender_theta -
                   dynamics[i - 1].defender_theta) > 1e-9) {
        ++moves;
      }
    }
    games.add_row({name, rep.maximin, rep.minimax, rep.gap, rep.saddle_points,
                   moves, dynamics.size() - 1});
  };

  const sim::ExperimentContext ctx =
      prepare_context(experiment_config(spec), bundle);
  add_context_metrics(ctx, result);
  const auto sweep = sim::run_pure_sweep(
      ctx, sim::sweep_grid(spec.sweep_max, spec.sweep_steps),
      spec.replications, bundle.evaluator(sim::context_key(ctx)));
  report("measured (Spambase-like sweep)",
         core::PoisoningGame(sim::fit_payoff_curves(sweep),
                             ctx.poison_budget));

  report("analytic E=(1-p)^5, G=p^1.4",
         core::PoisoningGame(
             core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4), 100));
  report("analytic E=(1-p)^3, G=p^1.0",
         core::PoisoningGame(
             core::PayoffCurves::analytic(0.001, 3.0, 0.02, 1.0), 100));
  report("analytic E=(1-p)^8, G=p^2.0",
         core::PoisoningGame(
             core::PayoffCurves::analytic(0.005, 8.0, 0.10, 2.0), 100));
  result.tables.push_back(std::move(games));

  // Control: constant damage, zero cost -- a game WITH saddle points.
  const core::PayoffCurves flat(
      util::PiecewiseLinear({0.0, 1.0}, {0.001, 0.001}),
      util::PiecewiseLinear({0.0, 1.0}, {0.0, 0.0}));
  const auto control =
      core::analyze_pure_equilibria(core::PoisoningGame(flat, 100), 96);
  result.add_metric("control_gap", control.gap);
  result.add_metric("control_saddle_points", control.saddle_points);
}

// ---------------------------------------------------------- support_sweep
// nsweep: the section-5 plateau claim.
void run_support_sweep_scenario(const ScenarioSpec& spec, CacheBundle& bundle,
                                ScenarioResult& result) {
  PG_CHECK(spec.support_min >= 1 && spec.support_min <= spec.support_max,
           "support_sweep requires 1 <= support_min <= support_max");
  const sim::ExperimentContext ctx =
      prepare_context(experiment_config(spec), bundle);
  add_context_metrics(ctx, result);
  const runtime::PayoffEvaluator& evaluator =
      bundle.evaluator(sim::context_key(ctx));

  const auto sweep = sim::run_pure_sweep(
      ctx, sim::sweep_grid(spec.sweep_max, spec.sweep_steps),
      spec.replications, evaluator);
  const auto curves = sim::fit_payoff_curves(sweep);
  const core::PoisoningGame game(curves, ctx.poison_budget);

  sim::MixedEvalConfig ecfg;
  ecfg.draws = spec.draws;
  const auto rows = sim::run_support_sweep(ctx, game, spec.support_min,
                                           spec.support_max, {}, ecfg,
                                           evaluator);

  ResultTable table{"support_sweep",
                    {"n", "strategy", "predicted_loss",
                     "adversarial_accuracy", "solve_ms", "solver_iterations"},
                    {}};
  for (const auto& row : rows) {
    table.add_row({row.support_size, row.strategy.describe(),
                   row.predicted_loss, row.adversarial_accuracy,
                   row.solve_seconds * 1e3, row.solve_iterations});
  }
  result.tables.push_back(std::move(table));

  // The plateau claim compares the rows n = 2, 3 and 5 (row i solved
  // n = support_min + i), when all three were solved.
  if (spec.support_min <= 2 && spec.support_max >= 5) {
    const auto loss = [&](std::size_t n) {
      return rows[n - spec.support_min].predicted_loss;
    };
    const double drop_2_to_3 = loss(2) - loss(3);
    const double drop_3_to_5 = loss(3) - loss(5);
    result.add_metric("loss_drop_2_to_3", drop_2_to_3);
    result.add_metric("loss_drop_3_to_5", drop_3_to_5);
    result.add_metric(
        "plateau_after_3",
        static_cast<std::size_t>(drop_3_to_5 <= drop_2_to_3 + 1e-9 ? 1 : 0));
  }
}

// ---------------------------------------------------------------- transfer
// transfer: source-solved strategy transplanted onto three
// perturbed target corpora vs the natively-solved strategy. The source is
// solved once, before the targets.
void run_transfer_scenario(const ScenarioSpec& spec, CacheBundle& bundle,
                           ScenarioResult& result) {
  const sim::ExperimentConfig base = experiment_config(spec);
  const auto source = prepare_context(base, bundle);
  add_context_metrics(source, result);

  struct Target {
    std::string name;
    sim::ExperimentConfig cfg;
  };
  std::vector<Target> targets;
  {
    Target t{"same generator, different seed", base};
    t.cfg.seed = base.seed + 1000;
    targets.push_back(t);
  }
  {
    Target t{"weaker class separation (0.8x)", base};
    t.cfg.seed = base.seed + 2000;
    t.cfg.corpus.class_separation = 0.8;
    targets.push_back(t);
  }
  {
    Target t{"smaller corpus (60%)", base};
    t.cfg.seed = base.seed + 3000;
    t.cfg.corpus.n_instances = base.corpus.n_instances * 3 / 5;
    targets.push_back(t);
  }

  sim::TransferConfig tcfg;
  tcfg.eval.draws = spec.draws;
  tcfg.sweep_replications = spec.replications;
  tcfg.support_size = spec.support_max;

  const auto source_strategy = sim::solve_transfer_strategy(
      source, tcfg, bundle.evaluator(sim::context_key(source)));
  ResultTable table{"targets",
                    {"target", "transferred_accuracy", "native_accuracy",
                     "transfer_gap"},
                    {}};
  for (const auto& target : targets) {
    const auto ctx = prepare_context(target.cfg, bundle);
    const auto res = sim::run_transfer_experiment(
        source_strategy, ctx, tcfg, bundle.evaluator(sim::context_key(ctx)));
    table.add_row(
        {target.name, res.transferred_accuracy, res.native_accuracy,
         res.transfer_gap});
  }
  result.tables.push_back(std::move(table));
}

// --------------------------------------------------------- solver_ablation
// solver_ablation: four routes to the mixed NE on analytic
// and measured curves.
void run_solver_ablation_scenario(const ScenarioSpec& spec,
                                  CacheBundle& bundle,
                                  ScenarioResult& result) {
  runtime::Executor& exec = bundle.executor();
  const game::LpConfig lp{game::parse_lp_pricing(spec.lp_pricing)};
  // Opt-in convergence telemetry: one row per decimated gap sample of
  // each iterative solve. Attaching a recorder is read-only on the
  // solver trajectory, and the `telemetry` table name keeps the rows out
  // of golden comparison by default, so telemetry=true cannot move any
  // compared value.
  const auto ablate = [&](const std::string& name,
                          const core::PoisoningGame& game_model,
                          ResultTable& convergence) {
    const auto record_convergence = [&](const char* solver,
                                        const game::ConvergenceTrace& trace) {
      for (const auto& sample : trace.samples) {
        convergence.add_row({name, solver, sample.iteration, sample.gap});
      }
    };
    ResultTable table{name,
                      {"solver", "value", "exploitability", "time_ms"},
                      {}};
    {
      util::Stopwatch w;
      core::Algorithm1Config cfg;
      cfg.support_size = 5;
      const auto sol = core::compute_optimal_defense(game_model, cfg, &exec);
      const auto ex =
          core::attacker_exploitability(game_model, sol.strategy, 4096);
      table.add_row({"algorithm1_n5", sol.defender_loss, ex.gain,
                     w.elapsed_ms()});
    }
    const auto mg =
        game_model.discretize(spec.solver_grid, spec.solver_grid, &exec);
    {
      util::Stopwatch w;
      const auto eq = game::solve_lp_equilibrium(mg, lp);
      table.add_row({std::string("simplex_lp_") + spec.lp_pricing, eq.value,
                     game::exploitability(mg, eq.row_strategy, eq.col_strategy),
                     w.elapsed_ms()});
    }
    {
      util::Stopwatch w;
      game::ConvergenceTrace trace;
      const auto eq = game::solve_fictitious_play(
          mg, {.iterations = spec.solver_iterations,
               .trace = spec.telemetry ? &trace : nullptr});
      table.add_row({"fictitious_play", eq.value,
                     game::exploitability(mg, eq.row_strategy, eq.col_strategy),
                     w.elapsed_ms()});
      if (spec.telemetry) record_convergence("fictitious_play", trace);
    }
    {
      util::Stopwatch w;
      game::ConvergenceTrace trace;
      const auto eq = game::solve_multiplicative_weights(
          mg, {.iterations = spec.solver_iterations,
               .trace = spec.telemetry ? &trace : nullptr});
      table.add_row({"multiplicative_weights", eq.value,
                     game::exploitability(mg, eq.row_strategy, eq.col_strategy),
                     w.elapsed_ms()});
      if (spec.telemetry) {
        record_convergence("multiplicative_weights", trace);
      }
    }
    return table;
  };

  const core::PoisoningGame analytic(
      core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4), 100);
  const sim::ExperimentContext ctx =
      prepare_context(experiment_config(spec), bundle);
  add_context_metrics(ctx, result);
  const auto sweep = sim::run_pure_sweep(
      ctx, sim::sweep_grid(spec.sweep_max, spec.sweep_steps),
      spec.replications, bundle.evaluator(sim::context_key(ctx)));
  const core::PoisoningGame measured(sim::fit_payoff_curves(sweep),
                                     ctx.poison_budget);

  // One task per game, each running that game's solvers one after
  // another and writing only its own slots. The slots are appended in
  // the fixed order analytic, measured, so the tables and the telemetry
  // row order do not depend on which task finishes first.
  const std::array<const core::PoisoningGame*, 2> games{&analytic, &measured};
  const std::array<std::string, 2> names{"analytic_curves", "measured_curves"};
  const ResultTable no_samples{
      "telemetry", {"game", "solver", "iteration", "gap"}, {}};
  std::array<ResultTable, 2> tables;
  std::array<ResultTable, 2> convergence{no_samples, no_samples};
  exec.parallel_for(0, 2, 1, [&](std::size_t g) {
    tables[g] = ablate(names[g], *games[g], convergence[g]);
  });
  for (ResultTable& table : tables) result.tables.push_back(std::move(table));
  if (spec.telemetry) {
    auto& rows = convergence[0].rows;
    auto& measured_rows = convergence[1].rows;
    rows.insert(rows.end(), std::make_move_iterator(measured_rows.begin()),
                std::make_move_iterator(measured_rows.end()));
    result.tables.push_back(std::move(convergence[0]));
  }
}

// -------------------------------------------------------- defense_ablation
// defense_ablation: centroid drift under attack plus the
// sanitizer-family comparison across attack families.
void run_defense_ablation_scenario(const ScenarioSpec& spec,
                                   CacheBundle& bundle,
                                   ScenarioResult& result) {
  const sim::ExperimentConfig cfg = experiment_config(spec);
  const sim::ExperimentContext ctx = prepare_context(cfg, bundle);
  add_context_metrics(ctx, result);

  // ---- (1) centroid estimator drift under a 20% boundary attack -------
  attack::BoundaryAttackConfig acfg;
  acfg.placement_fraction = 0.05;
  const attack::BoundaryAttack drift_attack(acfg);
  util::Rng arng(cfg.seed);
  const auto poison =
      drift_attack.generate(ctx.train(), ctx.poison_budget, arng);
  const auto poisoned = data::concatenate(ctx.train(), poison);

  ResultTable drift{"centroid_drift",
                    {"estimator", "drift_class_pos", "drift_class_neg"},
                    {}};
  for (auto method : {defense::CentroidMethod::kMean,
                      defense::CentroidMethod::kCoordinateMedian,
                      defense::CentroidMethod::kTrimmedMean}) {
    defense::CentroidConfig cc;
    cc.method = method;
    std::vector<Value> row{defense::centroid_method_name(method)};
    for (int label : {1, -1}) {
      const auto clean_c = defense::compute_centroid(ctx.train(), label, cc);
      const auto pois_c = defense::compute_centroid(poisoned, label, cc);
      row.emplace_back(la::distance(clean_c, pois_c));
    }
    drift.add_row(std::move(row));
  }
  result.tables.push_back(std::move(drift));

  // ---- (2) defense family comparison ---------------------------------
  std::vector<std::unique_ptr<attack::PoisoningAttack>> attacks;
  for (const std::string& name : split_list(spec.attacks)) {
    if (name == "boundary") {
      attacks.push_back(std::make_unique<attack::BoundaryAttack>(
          attack::BoundaryAttackConfig{.placement_fraction = 0.10}));
    } else if (name == "label_flip") {
      attacks.push_back(std::make_unique<attack::LabelFlipAttack>(
          attack::LabelFlipConfig{attack::FlipSelection::kNearCentroid}));
    } else if (name == "noise") {
      attacks.push_back(std::make_unique<attack::NoiseAttack>());
    } else {
      PG_CHECK(false, "unknown attack family: " + name);
    }
  }
  std::vector<std::unique_ptr<defense::Filter>> filters;
  for (const std::string& name : split_list(spec.defenses)) {
    if (name == "distance") {
      filters.push_back(std::make_unique<defense::DistanceFilter>(
          defense::DistanceFilterConfig{.removal_fraction = 0.15}));
    } else if (name == "knn") {
      filters.push_back(std::make_unique<defense::KnnFilter>(
          defense::KnnFilterConfig{.k = 10, .agreement_threshold = 0.5}));
    } else if (name == "pca") {
      filters.push_back(std::make_unique<defense::PcaFilter>(
          defense::PcaFilterConfig{.components = 5, .removal_fraction = 0.15}));
    } else if (name == "roni") {
      filters.push_back(
          std::make_unique<defense::RoniFilter>(defense::RoniConfig{}));
    } else {
      PG_CHECK(false, "unknown defense family: " + name);
    }
  }

  // The (attack x defense) pipeline runs are three-value cells on the
  // context's evaluator, keyed by the context plus both family names and
  // the RNG salt; like every payoff cell, a hit replays exactly what the
  // run would recompute. Every cell is a pure function of its (attack,
  // defense, salt) triple -- Rng::fork is stateless in the parent, the
  // pipeline and filters are shared const -- so the dispatch order cannot
  // affect any value; rows are assembled serially in the legacy order
  // afterwards.
  struct Cell {
    const attack::PoisoningAttack* atk;
    const defense::Filter* filter;
    std::string defense_name;
    std::uint64_t salt;
  };
  std::vector<Cell> cell_specs;
  for (const auto& atk : attacks) {
    cell_specs.push_back({atk.get(), nullptr, "(none)", 1});
    std::uint64_t salt = 2;
    for (const auto& f : filters) {
      cell_specs.push_back({atk.get(), f.get(), f->name(), salt++});
    }
  }
  const std::uint64_t fingerprint = sim::context_fingerprint(ctx);
  const defense::Pipeline pipeline({cfg.svm});
  const util::Rng rng(cfg.seed + 1);
  constexpr std::uint64_t kAblationTag = 0x4445464142'4C0001ULL;
  const runtime::PayoffEvaluator& evaluator =
      bundle.evaluator(sim::context_key(ctx));
  const std::vector<double> cells = evaluator.evaluate_cells(
      cell_specs.size(), 3,
      [&](std::size_t i, std::span<std::uint64_t> keys) {
        const Cell& c = cell_specs[i];
        runtime::ContentKey base;
        base.mix(kAblationTag).mix(fingerprint).mix(c.salt);
        for (const char ch : c.atk->name()) {
          base.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
        }
        for (const char ch : c.defense_name) {
          base.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
        }
        for (std::uint64_t arm = 0; arm < keys.size(); ++arm) {
          keys[arm] = runtime::ContentKey(base).mix(arm).digest();
        }
      },
      [&](std::size_t i, std::span<double> out) {
        const Cell& c = cell_specs[i];
        util::Rng r = rng.fork(c.salt);
        const auto res = pipeline.run(ctx.train(), ctx.test(), c.atk,
                                      ctx.poison_budget, c.filter, r);
        out[0] = res.test_accuracy;
        out[1] = res.detection.precision;
        out[2] = res.detection.recall;
      });

  ResultTable comparison{"defense_comparison",
                         {"attack", "defense", "accuracy",
                          "detection_precision", "detection_recall"},
                         {}};
  for (std::size_t i = 0; i < cell_specs.size(); ++i) {
    const Cell& c = cell_specs[i];
    const double* cell = &cells[3 * i];
    if (c.filter == nullptr) {
      comparison.add_row({c.atk->name(), "(none)", cell[0], "-", "-"});
    } else {
      comparison.add_row(
          {c.atk->name(), c.defense_name, cell[0], cell[1], cell[2]});
    }
  }
  result.tables.push_back(std::move(comparison));
}

// ------------------------------------------------------------ sweep grids
// A sweep-grid run executes every SweepPlan child through the same
// runner dispatch, then folds the per-point results into ONE merged
// ScenarioResult: every child table gains one leading coordinate column
// per axis, same-shaped tables across points concatenate, and per-point
// scalar metrics become rows of a "sweep_metrics" table keyed by the
// same coordinates. One artifact carries the whole grid.

// coordinate_value (engine.h) is defined below, outside this anonymous
// namespace, so tests can exercise its canonical-form rules directly.

/// Find-or-create the merged table matching `name` + `columns` (tables
/// only concatenate when their full schema agrees -- a swept `kind` axis
/// can legitimately produce same-named tables with different columns).
ResultTable& merged_table(ScenarioResult& merged, const std::string& name,
                          const std::vector<std::string>& columns) {
  for (ResultTable& table : merged.tables) {
    if (table.name == name && table.columns == columns) return table;
  }
  merged.tables.push_back({name, columns, {}});
  return merged.tables.back();
}

void merge_sweep_point(
    const std::vector<std::pair<std::string, std::string>>& coords,
    const ScenarioResult& point, ScenarioResult& merged) {
  std::vector<Value> coord_cells;
  std::vector<std::string> coord_columns;
  coord_cells.reserve(coords.size());
  coord_columns.reserve(coords.size());
  for (const auto& [key, value] : coords) {
    coord_columns.push_back(key);
    coord_cells.push_back(coordinate_value(value));
  }

  {
    std::vector<std::string> columns = coord_columns;
    columns.push_back("metric");
    columns.push_back("value");
    ResultTable& metrics = merged_table(merged, "sweep_metrics", columns);
    for (const auto& [key, value] : point.metrics) {
      std::vector<Value> row = coord_cells;
      row.emplace_back(key);
      row.push_back(value);
      metrics.rows.push_back(std::move(row));
    }
  }

  for (const ResultTable& table : point.tables) {
    std::vector<std::string> columns = coord_columns;
    columns.insert(columns.end(), table.columns.begin(), table.columns.end());
    ResultTable& target = merged_table(merged, table.name, columns);
    for (const auto& row : table.rows) {
      std::vector<Value> out = coord_cells;
      out.insert(out.end(), row.begin(), row.end());
      target.rows.push_back(std::move(out));
    }
  }
}

/// True for value names the sinks treat as wall-clock measurements
/// (result.h's naming convention) -- excluded from aggregation because a
/// mean of timings is noise, not a reproducible number.
bool is_timing_name(const std::string& name) {
  return name.ends_with("_ms") || name.ends_with("_seconds") ||
         name.find("speedup") != std::string::npos;
}

/// Axis-aware aggregation (the ROADMAP PR-4 follow-up): collapse the
/// merged per-point metrics across the axes named in `spec.aggregate`
/// (typically replication-style axes like `seed`), appending a
/// `sweep_aggregates` table keyed by the REMAINING axes' coordinates:
///
///     [kept axis columns...] metric  mean  min  max  count
///
/// Group order is first-appearance order in sweep_metrics and the mean
/// folds values in row order, so the table is deterministic at any
/// thread count. String-valued and wall-clock metrics are skipped.
void add_sweep_aggregates(const ScenarioSpec& spec, ScenarioResult& merged) {
  const std::vector<std::string> agg_keys = split_list(spec.aggregate);
  if (agg_keys.empty()) return;

  for (const ResultTable& table : merged.tables) {
    if (table.name != "sweep_metrics") continue;
    // Columns are [axis keys..., "metric", "value"]; aggregated axes must
    // exist, kept axes keep their column order.
    PG_CHECK(table.columns.size() >= 2, "sweep_metrics: malformed schema");
    const std::size_t n_axes = table.columns.size() - 2;
    std::vector<std::size_t> kept_cols;
    for (std::size_t c = 0; c < n_axes; ++c) {
      const bool aggregated =
          std::find(agg_keys.begin(), agg_keys.end(), table.columns[c]) !=
          agg_keys.end();
      if (!aggregated) kept_cols.push_back(c);
    }
    for (const std::string& key : agg_keys) {
      PG_CHECK(std::find(table.columns.begin(),
                         table.columns.begin() +
                             static_cast<std::ptrdiff_t>(n_axes),
                         key) != table.columns.begin() +
                                     static_cast<std::ptrdiff_t>(n_axes),
               "aggregate: '" + key + "' is not a sweep axis of this run");
    }

    struct Group {
      std::vector<Value> kept;  // kept coordinate cells + metric name
      double sum = 0.0;
      double min = 0.0;
      double max = 0.0;
      std::size_t count = 0;
    };
    std::vector<Group> groups;  // first-appearance order
    // Lookup by a serialized key (renders are canonical: shortest-exact
    // for numbers) so grouping is O(rows log groups), not O(rows x
    // groups); `groups` keeps the presentation order.
    std::map<std::string, std::size_t> group_index;
    for (const auto& row : table.rows) {
      const Value& metric = row[n_axes];
      const Value& value = row[n_axes + 1];
      if (!value.is_number() || is_timing_name(metric.text())) continue;
      std::vector<Value> key_cells;
      key_cells.reserve(kept_cols.size() + 1);
      for (const std::size_t c : kept_cols) key_cells.push_back(row[c]);
      key_cells.push_back(metric);
      std::string key;
      for (const Value& cell : key_cells) {
        key += cell.is_number() ? 'n' : 's';
        key += cell.render();
        key += '\x1f';  // unit separator: never in rendered cells
      }
      const auto [it, inserted] = group_index.try_emplace(key, groups.size());
      if (inserted) {
        groups.push_back({std::move(key_cells), 0.0, value.number(),
                          value.number(), 0});
      }
      Group& group = groups[it->second];
      group.sum += value.number();
      group.min = std::min(group.min, value.number());
      group.max = std::max(group.max, value.number());
      ++group.count;
    }

    std::vector<std::string> columns;
    for (const std::size_t c : kept_cols) columns.push_back(table.columns[c]);
    columns.insert(columns.end(), {"metric", "mean", "min", "max", "count"});
    ResultTable aggregates{"sweep_aggregates", std::move(columns), {}};
    for (const Group& g : groups) {
      std::vector<Value> row = g.kept;
      row.emplace_back(g.sum / static_cast<double>(g.count));
      row.emplace_back(g.min);
      row.emplace_back(g.max);
      row.emplace_back(g.count);
      aggregates.rows.push_back(std::move(row));
    }
    merged.tables.push_back(std::move(aggregates));
    return;
  }
  PG_CHECK(false, "aggregate set but the run produced no sweep_metrics "
                  "table (is the spec a sweep grid?)");
}

/// Calling thread's cumulative CPU time, for the wall-vs-CPU split in
/// the per-point timers (a point whose wall time dwarfs its CPU time was
/// waiting, not computing).
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

using RunnerFn = void (*)(const ScenarioSpec&, CacheBundle&, ScenarioResult&);

RunnerFn runner_for(const std::string& kind) {
  if (kind == "pure_sweep") return &run_pure_sweep_scenario;
  if (kind == "mixed_table") return &run_mixed_table_scenario;
  if (kind == "pure_ne") return &run_pure_ne_scenario;
  if (kind == "support_sweep") return &run_support_sweep_scenario;
  if (kind == "transfer") return &run_transfer_scenario;
  if (kind == "solver_ablation") return &run_solver_ablation_scenario;
  if (kind == "defense_ablation") return &run_defense_ablation_scenario;
  PG_CHECK(false, "unknown scenario kind: " + kind);
  return nullptr;  // unreachable
}

/// The shared body of both run_scenario overloads: validate, dispatch
/// (single run or point-parallel grid), merge, and fill the cache report.
/// The CALLER owns the executor, the shard store, and the observability
/// lifecycle; `spill` says whether this run flushes the store to disk
/// (standalone runs do, shared-context runs leave that to the owner's
/// drain).
ScenarioResult run_scenario_impl(const ScenarioSpec& spec,
                                 runtime::Executor* exec, ShardStore& store,
                                 bool spill) {
  const SweepPlan plan(spec);  // parses + type-checks every sweep clause

  // Validate every kind the run will dispatch BEFORE any work: the base
  // kind, or -- when `kind` itself is a swept axis -- each axis value.
  bool kind_swept = false;
  for (const SweepAxis& axis : plan.axes()) {
    if (axis.key != "kind") continue;
    kind_swept = true;
    for (const std::string& value : axis.values) (void)runner_for(value);
  }
  if (!kind_swept) (void)runner_for(spec.kind);

  // Surface the host's vector ISA on every run (metrics snapshots carry
  // it as a host fingerprint).
  obs::gauge("obs.simd.detected")
      .record(static_cast<std::uint64_t>(la::simd::detect_tier()) + 1);

  util::Stopwatch watch;
  // ONE cache bundle for the whole grid: points sharing an experiment
  // context (e.g. a solver-knob axis) reuse each other's retrains. The
  // bundle is this run's counter window onto the (possibly shared) store.
  CacheBundle bundle(store, *exec);

  ScenarioResult result;
  result.spec = spec;
  result.executor_threads = exec->concurrency();

  {
    obs::Span scenario_span("scenario:" + spec.name, "scenario");
    if (plan.empty()) {
      PG_CHECK(spec.aggregate.empty(),
               "aggregate requires sweep axes to aggregate over");
      runner_for(spec.kind)(spec, bundle, result);
    } else {
      result.sweep_axes = plan.axis_keys();
      result.add_metric("sweep_points", plan.size());
      // POINT-PARALLEL GRID: independent grid points dispatch concurrently
      // on the executor (each point's inner loops still fan out onto the
      // same pool, so one late point can spread across all of it). Each
      // point computes into its own slot; every point's randomness
      // derives from its child spec's seed
      // (RngStreamFactory streams inside the runners), and the shared
      // bundle only memoizes content-keyed values -- so results cannot
      // depend on scheduling, and the serial merge below folds them in
      // plan order regardless of completion order.
      std::vector<ScenarioResult> points(plan.size());
      runtime::parallel_for(exec, 0, plan.size(), 1, [&](std::size_t i) {
        obs::Span point_span("grid_point_" + std::to_string(i), "grid");
        static obs::Timer& wall = obs::timer("obs.engine.point_wall");
        static obs::Timer& cpu = obs::timer("obs.engine.point_cpu");
        const obs::ScopedTimer wall_timer(wall);
        const std::uint64_t cpu_start = thread_cpu_ns();
        const ScenarioSpec child = plan.child(i);
        points[i].spec = child;
        runner_for(child.kind)(child, bundle, points[i]);
        cpu.record_ns(thread_cpu_ns() - cpu_start);
      });
      for (std::size_t i = 0; i < plan.size(); ++i) {
        merge_sweep_point(plan.coordinates(i), points[i], result);
      }
      add_sweep_aggregates(spec, result);
    }
    bundle.finish(result.cache, spill);
  }

  // Fold the run's metrics into the result (diff-excluded `telemetry_*`
  // tables) after the scenario span closed, so a trace flushed by the
  // caller includes it.
  if (spec.metrics) append_metrics_tables(result);
  result.elapsed_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace

/// The standalone lifecycle: own executor, own shard store, own
/// observability window, spill on completion.
ScenarioResult run_scenario(const ScenarioSpec& spec) {
  // Observability lifecycle: reset the registry when this run will report
  // metrics (so the snapshot describes THIS run, not the process), and
  // arm the tracer when a trace path is set. Both are pure observers --
  // the run below computes exactly the same result with them on or off.
  if (spec.metrics) obs::reset_metrics();
  if (!spec.trace.empty()) obs::Tracer::instance().start();

  runtime::Executor exec(spec.threads);
  const std::string cache_dir = !spec.cache_dir.empty()
                                    ? spec.cache_dir
                                    : runtime::DiskPayoffCache::env_dir();
  ShardStore store(spec.use_cache, cache_dir, spec.cache_max_bytes);

  ScenarioResult result =
      run_scenario_impl(spec, &exec, store, /*spill=*/true);

  // Flush the trace AFTER the run so the file includes every span. A
  // failing trace write throws past the result -- the CLI pre-checks
  // writability, so this only fires when the path went bad mid-run. The
  // write is atomic (temp + fsync + rename): a worker killed here leaves
  // no torn trace for tooling to choke on.
  if (!spec.trace.empty()) {
    std::ostringstream trace_out;
    obs::Tracer::instance().write_chrome_trace(trace_out);
    robust::atomic_write_file(spec.trace, trace_out.str(), "artifact.trace");
  }
  return result;
}

Value coordinate_value(const std::string& text) {
  if (!text.empty()) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != nullptr && *end == '\0' && std::isfinite(v)) {
      // Numeric ONLY for the two canonical grid renderings (the forms
      // sweep.cpp's format_grid_value emits): the plain integer form, or
      // the shortest-roundtrip double form. Everything else strtod
      // happens to accept -- inf/nan spellings, hex (0x10), padded
      // digits (007), exponent aliases (1e3) -- stays the string the
      // spec text spelled, so JSON cells stay valid.
      const bool integer_form =
          v == std::floor(v) && std::abs(v) < 9.007199254740992e15 &&
          text == std::to_string(static_cast<long long>(v));
      if (integer_form || text == util::format_double_roundtrip(v)) {
        return Value(v);
      }
    }
  }
  return Value(text);
}

ScenarioResult run_scenario(const ScenarioSpec& spec, EngineContext& context) {
  PG_CHECK(context.executor != nullptr && context.shards != nullptr,
           "run_scenario: EngineContext needs an executor and a shard store");
  // Per-request trace files would race on the process-wide tracer; the
  // owner decides whether tracing is on for the whole process instead.
  PG_CHECK(spec.trace.empty(),
           "run_scenario: per-request trace files are not supported on a "
           "shared context (the owner controls the tracer)");
  return run_scenario_impl(spec, context.executor, *context.shards,
                           /*spill=*/false);
}

}  // namespace pg::scenario
