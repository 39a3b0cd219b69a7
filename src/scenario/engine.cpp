#include "scenario/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
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
#include "runtime/rng_stream.h"
#include "scenario/cache_bundle.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "sim/curve_fit.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"
#include "sim/support_sweep.h"
#include "sim/transfer.h"
#include "serve/protocol.h"
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

/// Resolve the spec's retrain-kernel request. nullopt = the bit-identical
/// reference default. kernel=simd resolves the tier (spec `simd=` over
/// $PG_SIMD over cpuid; an unsatisfiable request throws a one-line error,
/// never a silent fallback) and records it on the obs.simd.tier gauge
/// (encoded tier+1, so 0 distinguishes "never requested").
std::optional<sim::RetrainKernel> resolve_retrain_kernel(
    const ScenarioSpec& spec) {
  if (spec.kernel.empty() || spec.kernel == "reference") {
    PG_CHECK(spec.simd.empty(),
             "simd= tier override requires kernel=simd (the reference "
             "kernel has no tiers)");
    return std::nullopt;
  }
  PG_CHECK(spec.kernel == "simd", "unknown kernel '" + spec.kernel +
                                      "' (expected reference or simd)");
  sim::RetrainKernel kernel;
  kernel.tier = la::simd::resolve_tier(spec.simd);
  obs::gauge("obs.simd.tier")
      .record(static_cast<std::uint64_t>(kernel.tier) + 1);
  return kernel;
}

void add_context_metrics(const sim::ExperimentContext& ctx,
                         ScenarioResult& result) {
  result.add_metric("corpus_source", ctx.corpus_source);
  result.add_metric("instances", ctx.train.size() + ctx.test.size());
  result.add_metric("train_size", ctx.train.size());
  result.add_metric("test_size", ctx.test.size());
  result.add_metric("poison_budget", ctx.poison_budget);
  result.add_metric("clean_accuracy", ctx.clean_accuracy);
}

/// prepare_experiment with the clean baseline memoized in the context's
/// shard and counted in this run's cache report like any other cell.
sim::ExperimentContext prepare_context(const sim::ExperimentConfig& cfg,
                                       CacheBundle& bundle) {
  sim::BaselineMemo memo{
      [&bundle](std::uint64_t key) { return bundle.shard(key); }};
  sim::ExperimentContext ctx = sim::prepare_experiment(cfg, &memo);
  bundle.add_cells(memo.retrained, memo.hits);
  return ctx;
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
// Legacy bench_fig1: the Fig.-1 sweep plus fitted payoff curves.
void run_pure_sweep_scenario(const ScenarioSpec& spec, runtime::Executor* exec,
                             CacheBundle& bundle, ScenarioResult& result) {
  const sim::ExperimentContext ctx =
      prepare_context(experiment_config(spec), bundle);
  add_context_metrics(ctx, result);

  const auto kernel = resolve_retrain_kernel(spec);
  sim::PureSweepStats sweep_stats;
  const auto grid = sim::sweep_grid(spec.sweep_max, spec.sweep_steps);
  const auto sweep = sim::run_pure_sweep(
      ctx, grid, spec.replications, exec,
      bundle.shard(sim::context_key(ctx)), &sweep_stats,
      kernel ? &*kernel : nullptr);
  bundle.add_sweep_stats(sweep_stats);
  result.tables.push_back(sweep_table(sweep));

  const auto best = sim::best_pure_defense(sweep);
  const double majority = std::max(ctx.test.positive_fraction(),
                                   1.0 - ctx.test.positive_fraction());
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
// Legacy bench_table1: Algorithm 1 at n in [support_min, support_max],
// empirical mixed evaluation, and the mixed-vs-pure comparison claim.
void run_mixed_table_scenario(const ScenarioSpec& spec, runtime::Executor* exec,
                              CacheBundle& bundle, ScenarioResult& result) {
  PG_CHECK(spec.support_min >= 1 && spec.support_min <= spec.support_max,
           "mixed_table requires 1 <= support_min <= support_max");
  const sim::ExperimentContext ctx =
      prepare_context(experiment_config(spec), bundle);
  add_context_metrics(ctx, result);

  runtime::PayoffCache* cache = bundle.shard(sim::context_key(ctx));
  const runtime::PayoffEvaluator evaluator(runtime::executor_or_serial(exec),
                                           cache);

  const auto kernel = resolve_retrain_kernel(spec);
  const sim::RetrainKernel* kptr = kernel ? &*kernel : nullptr;
  sim::PureSweepStats sweep_stats;
  const auto grid = sim::sweep_grid(spec.sweep_max, spec.sweep_steps);
  const auto sweep = sim::run_pure_sweep(ctx, grid, spec.replications, exec,
                                         cache, &sweep_stats, kptr);
  bundle.add_sweep_stats(sweep_stats);
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
    const auto sol = core::compute_optimal_defense(game, acfg, exec);
    const auto indiff = core::check_indifference(game, sol.strategy, 1e-3);

    sim::MixedEvalConfig ecfg;
    ecfg.draws = spec.draws;
    ecfg.kernel = kptr;
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

  bundle.absorb(evaluator);
}

// --------------------------------------------------------------- pure_ne
// Legacy bench_prop1: duality gap / saddle scan / best-response cycling
// on measured and analytic curve families, plus a control game.
void run_pure_ne_scenario(const ScenarioSpec& spec, runtime::Executor* exec,
                          CacheBundle& bundle, ScenarioResult& result) {
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
  const auto kernel = resolve_retrain_kernel(spec);
  sim::PureSweepStats sweep_stats;
  const auto sweep = sim::run_pure_sweep(
      ctx, sim::sweep_grid(spec.sweep_max, spec.sweep_steps),
      spec.replications, exec, bundle.shard(sim::context_key(ctx)),
      &sweep_stats, kernel ? &*kernel : nullptr);
  bundle.add_sweep_stats(sweep_stats);
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
// Legacy bench_nsweep: the section-5 plateau claim.
void run_support_sweep_scenario(const ScenarioSpec& spec,
                                runtime::Executor* exec, CacheBundle& bundle,
                                ScenarioResult& result) {
  const sim::ExperimentContext ctx =
      prepare_context(experiment_config(spec), bundle);
  add_context_metrics(ctx, result);

  runtime::PayoffCache* cache = bundle.shard(sim::context_key(ctx));
  const runtime::PayoffEvaluator evaluator(runtime::executor_or_serial(exec),
                                           cache);

  const auto kernel = resolve_retrain_kernel(spec);
  const sim::RetrainKernel* kptr = kernel ? &*kernel : nullptr;
  sim::PureSweepStats sweep_stats;
  const auto sweep = sim::run_pure_sweep(
      ctx, sim::sweep_grid(spec.sweep_max, spec.sweep_steps),
      spec.replications, exec, cache, &sweep_stats, kptr);
  bundle.add_sweep_stats(sweep_stats);
  const auto curves = sim::fit_payoff_curves(sweep);
  const core::PoisoningGame game(curves, ctx.poison_budget);

  sim::MixedEvalConfig ecfg;
  ecfg.draws = spec.draws;
  ecfg.kernel = kptr;
  const auto rows = sim::run_support_sweep(ctx, game, spec.support_max, {},
                                           ecfg, exec, &evaluator);

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

  if (rows.size() >= 5) {
    const double drop_2_to_3 = rows[1].predicted_loss - rows[2].predicted_loss;
    const double drop_3_to_5 = rows[2].predicted_loss - rows[4].predicted_loss;
    result.add_metric("loss_drop_2_to_3", drop_2_to_3);
    result.add_metric("loss_drop_3_to_5", drop_3_to_5);
    result.add_metric(
        "plateau_after_3",
        static_cast<std::size_t>(drop_3_to_5 <= drop_2_to_3 + 1e-9 ? 1 : 0));
  }
  bundle.absorb(evaluator);
}

// ---------------------------------------------------------------- transfer
// Legacy bench_transfer: source-solved strategy transplanted onto three
// perturbed target corpora vs the natively-solved strategy. The source is
// solved once, before the targets.
void run_transfer_scenario(const ScenarioSpec& spec, runtime::Executor* exec,
                           CacheBundle& bundle, ScenarioResult& result) {
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

  const auto kernel = resolve_retrain_kernel(spec);
  sim::TransferConfig tcfg;
  tcfg.eval.draws = spec.draws;
  tcfg.sweep_replications = spec.replications;
  tcfg.support_size = spec.support_max;
  tcfg.kernel = kernel ? &*kernel : nullptr;
  tcfg.eval.kernel = tcfg.kernel;

  sim::PureSweepStats sweep_stats;
  const auto source_strategy = sim::solve_transfer_strategy(
      source, tcfg, exec, bundle.shard(sim::context_key(source)),
      &sweep_stats);
  ResultTable table{"targets",
                    {"target", "transferred_accuracy", "native_accuracy",
                     "transfer_gap"},
                    {}};
  for (const auto& target : targets) {
    const auto ctx = prepare_context(target.cfg, bundle);
    runtime::PayoffCache* target_cache =
        bundle.shard(sim::context_key(ctx));
    const runtime::PayoffEvaluator evaluator(runtime::executor_or_serial(exec),
                                             target_cache);
    const auto res = sim::run_transfer_experiment(
        source_strategy, ctx, tcfg, exec, &evaluator, target_cache,
        &sweep_stats);
    table.add_row(
        {target.name, res.transferred_accuracy, res.native_accuracy,
         res.transfer_gap});
    bundle.absorb(evaluator);
  }
  bundle.add_sweep_stats(sweep_stats);
  result.tables.push_back(std::move(table));
}

// --------------------------------------------------------- solver_ablation
// Legacy bench_solver_ablation: four routes to the mixed NE on analytic
// and measured curves.
void run_solver_ablation_scenario(const ScenarioSpec& spec,
                                  runtime::Executor* exec, CacheBundle& bundle,
                                  ScenarioResult& result) {
  const game::LpConfig lp{game::parse_lp_pricing(spec.lp_pricing)};
  // Opt-in convergence telemetry: one row per decimated gap sample of
  // each iterative solve. Attaching a recorder is read-only on the
  // solver trajectory, and the `telemetry` table name keeps the rows out
  // of golden comparison by default, so telemetry=true cannot move any
  // compared value.
  std::optional<ResultTable> convergence;
  if (spec.telemetry) {
    convergence.emplace(
        ResultTable{"telemetry", {"game", "solver", "iteration", "gap"}, {}});
  }
  const auto record_convergence = [&](const std::string& game_name,
                                      const char* solver,
                                      const game::ConvergenceTrace& trace) {
    for (const auto& sample : trace.samples) {
      convergence->add_row(
          {game_name, solver, sample.iteration, sample.gap});
    }
  };
  const auto ablate = [&](const std::string& name,
                          const core::PoisoningGame& game_model) {
    ResultTable table{name,
                      {"solver", "value", "exploitability", "time_ms"},
                      {}};
    {
      util::Stopwatch w;
      core::Algorithm1Config cfg;
      cfg.support_size = 5;
      const auto sol = core::compute_optimal_defense(game_model, cfg, exec);
      const auto ex =
          core::attacker_exploitability(game_model, sol.strategy, 4096);
      table.add_row({"algorithm1_n5", sol.defender_loss, ex.gain,
                     w.elapsed_ms()});
    }
    const auto mg =
        game_model.discretize(spec.solver_grid, spec.solver_grid, exec);
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
               .trace = convergence ? &trace : nullptr});
      table.add_row({"fictitious_play", eq.value,
                     game::exploitability(mg, eq.row_strategy, eq.col_strategy),
                     w.elapsed_ms()});
      if (convergence) record_convergence(name, "fictitious_play", trace);
    }
    {
      util::Stopwatch w;
      game::ConvergenceTrace trace;
      const auto eq = game::solve_multiplicative_weights(
          mg, {.iterations = spec.solver_iterations,
               .trace = convergence ? &trace : nullptr});
      table.add_row({"multiplicative_weights", eq.value,
                     game::exploitability(mg, eq.row_strategy, eq.col_strategy),
                     w.elapsed_ms()});
      if (convergence) record_convergence(name, "multiplicative_weights", trace);
    }
    result.tables.push_back(std::move(table));
  };

  ablate("analytic_curves",
         core::PoisoningGame(
             core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4), 100));

  const sim::ExperimentContext ctx =
      prepare_context(experiment_config(spec), bundle);
  add_context_metrics(ctx, result);
  const auto kernel = resolve_retrain_kernel(spec);
  sim::PureSweepStats sweep_stats;
  const auto sweep = sim::run_pure_sweep(
      ctx, sim::sweep_grid(spec.sweep_max, spec.sweep_steps),
      spec.replications, exec, bundle.shard(sim::context_key(ctx)),
      &sweep_stats, kernel ? &*kernel : nullptr);
  bundle.add_sweep_stats(sweep_stats);
  ablate("measured_curves",
         core::PoisoningGame(sim::fit_payoff_curves(sweep),
                             ctx.poison_budget));
  if (convergence) result.tables.push_back(std::move(*convergence));
}

// -------------------------------------------------------- defense_ablation
// Legacy bench_defense_ablation: centroid drift under attack plus the
// sanitizer-family comparison across attack families.
void run_defense_ablation_scenario(const ScenarioSpec& spec,
                                   runtime::Executor* exec,
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
  const auto poison = drift_attack.generate(ctx.train, ctx.poison_budget, arng);
  const auto poisoned = data::concatenate(ctx.train, poison);

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
      const auto clean_c = defense::compute_centroid(ctx.train, label, cc);
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

  // Each (attack, defense) pipeline run memoizes its three measurements
  // under a content key covering the context plus both family names and
  // the RNG salt; like every payoff cell, a hit replays exactly what the
  // run would recompute.
  const std::uint64_t fingerprint = sim::context_fingerprint(ctx);
  runtime::PayoffCache* cache = bundle.shard(sim::context_key(ctx));
  std::atomic<std::size_t> retrained{0};
  std::atomic<std::size_t> hits{0};
  const defense::Pipeline pipeline({cfg.svm});
  const util::Rng rng(cfg.seed + 1);
  constexpr std::uint64_t kAblationTag = 0x4445464142'4C0001ULL;

  const auto run_cell = [&](const attack::PoisoningAttack* atk,
                            const defense::Filter* filter,
                            const std::string& defense_name,
                            std::uint64_t salt) -> std::array<double, 3> {
    runtime::ContentKey base;
    base.mix(kAblationTag).mix(fingerprint).mix(salt);
    for (const char c : atk->name()) {
      base.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    for (const char c : defense_name) {
      base.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    const auto subkey = [&base](std::uint64_t arm) {
      runtime::ContentKey k = base;
      return k.mix(arm).digest();
    };
    std::array<double, 3> out{};
    // Single-flight on sub-key 0, published LAST (so a hit on 0 implies
    // 1 and 2 are present) -- concurrent requests sharing this shard
    // coalesce onto one pipeline run per cell.
    bool owner = false;
    if (cache != nullptr) {
      const runtime::PayoffCache::Claim claim = cache->claim(subkey(0), out[0]);
      if (claim != runtime::PayoffCache::Claim::kOwner) {
        if (cache->lookup(subkey(1), out[1]) &&
            cache->lookup(subkey(2), out[2])) {
          hits.fetch_add(1, std::memory_order_relaxed);
          return out;
        }
      } else {
        owner = true;
      }
    }
    std::array<double, 3> computed{};
    try {
      util::Rng r = rng.fork(salt);
      const auto res = pipeline.run(ctx.train, ctx.test, atk,
                                    ctx.poison_budget, filter, r);
      computed = {res.test_accuracy, res.detection.precision,
                  res.detection.recall};
    } catch (...) {
      if (owner) cache->abandon(subkey(0));
      throw;
    }
    out = computed;
    retrained.fetch_add(1, std::memory_order_relaxed);
    if (cache != nullptr) {
      cache->store(subkey(1), out[1]);
      cache->store(subkey(2), out[2]);
      if (owner) cache->publish(subkey(0), out[0]);
    }
    return out;
  };

  // The (attack x defense) pipeline cells run cell-parallel on the
  // executor this runner is handed (previously a sequential loop, the
  // `(void)exec` gap ROADMAP.md tracked). Every cell is a pure function
  // of its (attack, defense, salt) triple -- Rng::fork is stateless in
  // the parent, the pipeline and filters are shared const -- so the
  // dispatch order cannot affect any value; rows are assembled serially
  // in the legacy order afterwards.
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
  std::vector<std::array<double, 3>> cells(cell_specs.size());
  runtime::parallel_for_nested(exec, 0, cell_specs.size(), 1,
                               [&](std::size_t i) {
                                 const Cell& c = cell_specs[i];
                                 cells[i] = run_cell(c.atk, c.filter,
                                                     c.defense_name, c.salt);
                               });

  ResultTable comparison{"defense_comparison",
                         {"attack", "defense", "accuracy",
                          "detection_precision", "detection_recall"},
                         {}};
  for (std::size_t i = 0; i < cell_specs.size(); ++i) {
    const Cell& c = cell_specs[i];
    if (c.filter == nullptr) {
      comparison.add_row({c.atk->name(), "(none)", cells[i][0], "-", "-"});
    } else {
      comparison.add_row({c.atk->name(), c.defense_name, cells[i][0],
                          cells[i][1], cells[i][2]});
    }
  }
  result.tables.push_back(std::move(comparison));
  bundle.add_cells(retrained.load(), hits.load());
}

// ------------------------------------------------------------------ micro
// Engine-native micro kernel (the subset of bench_micro that does not
// need the google-benchmark harness): the payoff grid fill's speedup.
void run_micro_scenario(const ScenarioSpec& spec, runtime::Executor* exec,
                        CacheBundle& bundle, ScenarioResult& result) {
  (void)bundle;
  PG_CHECK(spec.timing_reps >= 1, "timing_reps must be >= 1");
  ResultTable table{"kernels",
                    {"kernel", "serial_ms", "parallel_ms",
                     "speedup_vs_serial"},
                    {}};

  const auto timed = [&](const auto& fn) {
    double best = 1e300;
    for (std::size_t r = 0; r < spec.timing_reps; ++r) {
      util::Stopwatch w;
      fn();
      best = std::min(best, w.elapsed_ms());
    }
    return best;
  };

  {
    const core::PoisoningGame game(
        core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4), 100);
    la::Matrix serial_grid;
    la::Matrix parallel_grid;
    const double serial_ms = timed(
        [&] { serial_grid = game.discretize(256, 256, nullptr).payoff(); });
    const double parallel_ms =
        timed([&] { parallel_grid = game.discretize(256, 256, exec).payoff(); });
    PG_ASSERT(serial_grid.data() == parallel_grid.data(),
              "parallel payoff grid broke bit-identity");
    table.add_row({"discretize_256", serial_ms, parallel_ms,
                   serial_ms / parallel_ms});
  }
  result.tables.push_back(std::move(table));
}

// Service-health scenario: snapshot the PROCESS's serve/fault/shard
// counters into a telemetry table. Submitted to a pg_serve daemon it
// reports the daemon's own live counters (queue depth, errors, pings,
// retries) without submitting real work; run standalone it pins the
// stable identity surface -- protocol and schema versions -- which is
// what the golden baseline compares (the counter VALUES are
// scheduling-dependent telemetry, excluded by table name and obs.-prefix
// like every other telemetry surface).
void run_serve_metrics_scenario(const ScenarioSpec& spec,
                                runtime::Executor* exec, CacheBundle& bundle,
                                ScenarioResult& result) {
  (void)spec;
  (void)exec;
  (void)bundle;
  result.add_metric("protocol_major", serve::kProtocolMajor);
  result.add_metric("protocol_minor", serve::kProtocolMinor);
  result.add_metric("schema_version", serve::kSchemaVersion);
  ResultTable table{"telemetry_serve", {"metric", "kind", "value"}, {}};
  for (const auto& m : obs::snapshot_metrics()) {
    const bool service = m.name.rfind("obs.serve.", 0) == 0 ||
                         m.name.rfind("obs.fault.", 0) == 0 ||
                         m.name.rfind("obs.shard.", 0) == 0 ||
                         m.name.rfind("obs.cache.quarantined", 0) == 0;
    if (!service) continue;
    const char* kind = m.kind == obs::MetricSnapshot::Kind::kTimer
                           ? "timer"
                           : (m.kind == obs::MetricSnapshot::Kind::kGauge
                                  ? "gauge"
                                  : "counter");
    table.add_row({m.name, kind, m.count});
  }
  // The row count is health data too, but it varies with process
  // history; the obs. prefix keeps it out of baseline comparison.
  result.add_metric("obs.serve.metrics_reported", table.rows.size());
  result.tables.push_back(std::move(table));
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

using RunnerFn = void (*)(const ScenarioSpec&, runtime::Executor*,
                          CacheBundle&, ScenarioResult&);

RunnerFn runner_for(const std::string& kind) {
  if (kind == "pure_sweep") return &run_pure_sweep_scenario;
  if (kind == "mixed_table") return &run_mixed_table_scenario;
  if (kind == "pure_ne") return &run_pure_ne_scenario;
  if (kind == "support_sweep") return &run_support_sweep_scenario;
  if (kind == "transfer") return &run_transfer_scenario;
  if (kind == "solver_ablation") return &run_solver_ablation_scenario;
  if (kind == "defense_ablation") return &run_defense_ablation_scenario;
  if (kind == "micro") return &run_micro_scenario;
  if (kind == "serve_metrics") return &run_serve_metrics_scenario;
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
                                 bool spill,
                                 const ShardRequest* shard = nullptr) {
  const SweepPlan plan(spec);  // parses + type-checks every sweep clause
  PG_CHECK(shard == nullptr || !plan.empty(),
           "--shard requires sweep axes (a single point has nothing to "
           "partition)");

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
  // it even for reference runs), and fail an unsatisfiable kernel=simd
  // request HERE, before any cell retrains.
  obs::gauge("obs.simd.detected")
      .record(static_cast<std::uint64_t>(la::simd::detect_tier()) + 1);
  (void)resolve_retrain_kernel(spec);

  util::Stopwatch watch;
  // ONE cache bundle for the whole grid: points sharing an experiment
  // context (e.g. a solver-knob axis) reuse each other's retrains. The
  // bundle is this run's counter window onto the (possibly shared) store.
  CacheBundle bundle(store);

  ScenarioResult result;
  result.spec = spec;
  result.executor_threads = exec->concurrency();

  {
    obs::Span scenario_span("scenario:" + spec.name, "scenario");
    if (plan.empty()) {
      PG_CHECK(spec.aggregate.empty(),
               "aggregate requires sweep axes to aggregate over");
      runner_for(spec.kind)(spec, exec, bundle, result);
    } else {
      result.sweep_axes = plan.axis_keys();
      result.add_metric("sweep_points", plan.size());
      // Covered plan indices: the whole grid, or -- on a shard run -- the
      // deterministic stride {i, i+N, ...}. The stride depends only on
      // the plan, so N workers launched with the same spec partition the
      // grid without talking to each other.
      std::vector<std::size_t> covered;
      if (shard != nullptr) {
        covered = plan.shard_indices(shard->index, shard->total);
        obs::gauge("obs.shard.index").record(shard->index);
        obs::gauge("obs.shard.total").record(shard->total);
        obs::counter("obs.shard.points_run").add(covered.size());
        result.partial.shard = shard->index;
        result.partial.total_shards = shard->total;
        result.partial.grid_size = plan.size();
        // The merge's cross-shard consistency key: every worker of one
        // sweep resolves to the same spec, hence the same canonical text.
        result.partial.spec_text = spec.to_text();
      } else {
        covered.resize(plan.size());
        for (std::size_t i = 0; i < covered.size(); ++i) covered[i] = i;
      }
      // POINT-PARALLEL GRID: independent grid points dispatch concurrently
      // through the nested executor (each point's inner loops still fan
      // out -- payoff cells use parallel_for_nested, so one late point can
      // spread across the whole pool). Each point computes into its own
      // slot; every point's randomness derives from its child spec's seed
      // (RngStreamFactory streams inside the runners), and the shared
      // bundle only memoizes content-keyed values -- so results cannot
      // depend on scheduling, and the serial merge below folds them in
      // plan order regardless of completion order.
      std::vector<ScenarioResult> points(covered.size());
      runtime::parallel_for_nested(
          exec, 0, covered.size(), 1, [&](std::size_t slot) {
            const std::size_t i = covered[slot];
            obs::Span point_span("grid_point_" + std::to_string(i), "grid");
            static obs::Timer& wall = obs::timer("obs.engine.point_wall");
            static obs::Timer& cpu = obs::timer("obs.engine.point_cpu");
            const obs::ScopedTimer wall_timer(wall);
            const std::uint64_t cpu_start = thread_cpu_ns();
            const ScenarioSpec child = plan.child(i);
            points[slot].spec = child;
            if (child.threads != spec.threads) {
              // `threads` is itself a swept axis: this point gets its own
              // executor (results are thread-count-invariant, so the grid
              // stays bit-identical either way).
              const auto child_exec = sim::make_executor(child.threads);
              runner_for(child.kind)(child, child_exec.get(), bundle,
                                     points[slot]);
            } else {
              runner_for(child.kind)(child, exec, bundle, points[slot]);
            }
            cpu.record_ns(thread_cpu_ns() - cpu_start);
          });
      for (std::size_t slot = 0; slot < covered.size(); ++slot) {
        merge_sweep_point(plan.coordinates(covered[slot]), points[slot],
                          result);
      }
      if (shard != nullptr) {
        // Keep every covered point's RAW output in the envelope: the
        // merge replays it through the same fold above, so the stitched
        // artifact is value-identical to a single-process run. Aggregates
        // are NOT computed here -- they need the full grid and are
        // recomputed at merge time.
        result.partial.points.reserve(covered.size());
        for (std::size_t slot = 0; slot < covered.size(); ++slot) {
          result.partial.points.push_back({covered[slot],
                                           std::move(points[slot].metrics),
                                           std::move(points[slot].tables)});
        }
      } else {
        add_sweep_aggregates(spec, result);
      }
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

/// The standalone lifecycle shared by run_scenario and
/// run_scenario_shard: own executor, own shard store, own observability
/// window, spill on completion.
ScenarioResult run_scenario_standalone(const ScenarioSpec& spec,
                                       const ShardRequest* shard) {
  // Observability lifecycle: reset the registry when this run will report
  // metrics (so the snapshot describes THIS run, not the process), and
  // arm the tracer when a trace path is set. Both are pure observers --
  // the run below computes exactly the same result with them on or off.
  if (spec.metrics) obs::reset_metrics();
  if (!spec.trace.empty()) obs::Tracer::instance().start();

  const auto exec = sim::make_executor(spec.threads);
  const std::string cache_dir = !spec.cache_dir.empty()
                                    ? spec.cache_dir
                                    : runtime::DiskPayoffCache::env_dir();
  ShardStore store(spec.use_cache, cache_dir, spec.cache_max_bytes);

  ScenarioResult result =
      run_scenario_impl(spec, exec.get(), store, /*spill=*/true, shard);

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

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario_standalone(spec, nullptr);
}

ScenarioResult run_scenario_shard(const ScenarioSpec& spec,
                                  const ShardRequest& shard) {
  return run_scenario_standalone(spec, &shard);
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
      // spec text spelled, so JSON cells stay valid and merge keys
      // round-trip exactly.
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

// --------------------------------------------------------- shard merging

namespace {

/// Reconstruct a Value from its partial-envelope JSON form (the exact
/// encoding result.cpp's write_exact_value produces).
Value value_from_json(const JsonValue& v, const std::string& where) {
  switch (v.kind) {
    case JsonValue::Kind::kNumber: return Value(v.number);
    case JsonValue::Kind::kString: return Value(v.text);
    case JsonValue::Kind::kObject: {
      const JsonValue* nf = v.find("nf");
      PG_CHECK(nf != nullptr && nf->kind == JsonValue::Kind::kString,
               "merge: " + where + ": unexpected object cell");
      if (nf->text == "inf") {
        return Value(std::numeric_limits<double>::infinity());
      }
      if (nf->text == "-inf") {
        return Value(-std::numeric_limits<double>::infinity());
      }
      PG_CHECK(nf->text == "nan", "merge: " + where +
                                      ": unknown non-finite tag '" +
                                      nf->text + "'");
      return Value(std::numeric_limits<double>::quiet_NaN());
    }
    case JsonValue::Kind::kNull:
      // Defensive: the DISPLAY sink's stand-in for a non-finite number
      // (partials tag them instead, but accept a hand-carried artifact).
      return Value(std::numeric_limits<double>::quiet_NaN());
    default:
      PG_CHECK(false, "merge: " + where + ": cell is not a scalar value");
  }
  return Value();
}

/// Required non-negative integer member of a partial envelope.
std::size_t size_member(const JsonValue& obj, const char* key,
                        const std::string& label) {
  const JsonValue* v = obj.find(key);
  PG_CHECK(v != nullptr && v->kind == JsonValue::Kind::kNumber &&
               v->number >= 0.0 && v->number == std::floor(v->number),
           "merge: " + label + ": partial envelope needs a non-negative "
           "integer \"" + std::string(key) + "\"");
  return static_cast<std::size_t>(v->number);
}

/// One covered point of one shard, reconstructed as the raw per-point
/// ScenarioResult surface merge_sweep_point consumes.
ScenarioResult point_from_json(const JsonValue& point,
                               const std::string& where) {
  ScenarioResult out;
  const JsonValue* metrics = point.find("metrics");
  PG_CHECK(metrics != nullptr && metrics->kind == JsonValue::Kind::kObject,
           "merge: " + where + ": point has no metrics object");
  for (const auto& [name, value] : metrics->members) {
    out.metrics.emplace_back(name,
                             value_from_json(value, where + "/" + name));
  }
  const JsonValue* tables = point.find("tables");
  PG_CHECK(tables != nullptr && tables->kind == JsonValue::Kind::kArray,
           "merge: " + where + ": point has no tables array");
  for (const JsonValue& tj : tables->items) {
    PG_CHECK(tj.kind == JsonValue::Kind::kObject,
             "merge: " + where + ": malformed table");
    const JsonValue* name = tj.find("name");
    const JsonValue* columns = tj.find("columns");
    const JsonValue* rows = tj.find("rows");
    PG_CHECK(name != nullptr && name->kind == JsonValue::Kind::kString &&
                 columns != nullptr &&
                 columns->kind == JsonValue::Kind::kArray &&
                 rows != nullptr && rows->kind == JsonValue::Kind::kArray,
             "merge: " + where + ": malformed table");
    ResultTable table;
    table.name = name->text;
    for (const JsonValue& c : columns->items) {
      PG_CHECK(c.kind == JsonValue::Kind::kString,
               "merge: " + where + ": non-string column name");
      table.columns.push_back(c.text);
    }
    for (const JsonValue& row : rows->items) {
      PG_CHECK(row.kind == JsonValue::Kind::kArray &&
                   row.items.size() == table.columns.size(),
               "merge: " + where + "/" + table.name + ": row width mismatch");
      std::vector<Value> cells;
      cells.reserve(row.items.size());
      for (const JsonValue& cell : row.items) {
        cells.push_back(value_from_json(cell, where + "/" + table.name));
      }
      table.rows.push_back(std::move(cells));
    }
    out.tables.push_back(std::move(table));
  }
  return out;
}

}  // namespace

ScenarioResult merge_partials(
    const std::vector<std::pair<std::string, JsonValue>>& partials) {
  PG_CHECK(!partials.empty(), "merge: no partial artifacts given");

  // Pass 1 -- validate every envelope and index shards. Everything is
  // checked BEFORE any stitching, so a bad input is a clean one-line
  // error naming the offending artifact, never a half-merged result.
  std::size_t total = 0;
  std::size_t grid = 0;
  std::string spec_text;
  std::map<std::size_t, const JsonValue*> shard_points;  // shard -> points[]
  std::map<std::size_t, std::string> shard_labels;
  for (const auto& [label, artifact] : partials) {
    PG_CHECK(artifact.kind == JsonValue::Kind::kObject,
             "merge: " + label + ": not a JSON object");
    const JsonValue* schema = artifact.find("schema_version");
    PG_CHECK(schema != nullptr &&
                 schema->kind == JsonValue::Kind::kNumber &&
                 schema->number == serve::kSchemaVersion,
             "merge: " + label + ": missing or unsupported schema_version "
             "(expected " + std::to_string(serve::kSchemaVersion) + ")");
    const JsonValue* partial = artifact.find("partial");
    PG_CHECK(partial != nullptr &&
                 partial->kind == JsonValue::Kind::kObject,
             "merge: " + label + " is not a shard partial (produce inputs "
             "with pg_run --shard i/N --out json)");
    const std::size_t shard = size_member(*partial, "shard", label);
    const std::size_t this_total = size_member(*partial, "total_shards",
                                               label);
    const std::size_t this_grid = size_member(*partial, "grid_size", label);
    PG_CHECK(this_total >= 1 && shard < this_total,
             "merge: " + label + ": shard " + std::to_string(shard) +
                 "/" + std::to_string(this_total) + " is out of range");
    const JsonValue* st = partial->find("spec_text");
    PG_CHECK(st != nullptr && st->kind == JsonValue::Kind::kString,
             "merge: " + label + ": partial envelope has no spec_text");
    if (shard_points.empty()) {
      total = this_total;
      grid = this_grid;
      spec_text = st->text;
    } else {
      PG_CHECK(this_total == total,
               "merge: " + label + " declares " +
                   std::to_string(this_total) + " total shard(s), other "
                   "partials declare " + std::to_string(total));
      PG_CHECK(this_grid == grid,
               "merge: " + label + " declares a grid of " +
                   std::to_string(this_grid) + " point(s), other partials "
                   "declare " + std::to_string(grid));
      PG_CHECK(st->text == spec_text,
               "merge: " + label + ": spec text differs from the other "
               "partials (these are not shards of one sweep)");
    }
    const auto [it, inserted] = shard_points.emplace(
        shard, partial->find("points"));
    PG_CHECK(inserted, "merge: shard " + std::to_string(shard) +
                           " appears twice (" + shard_labels[shard] +
                           " and " + label + ")");
    shard_labels[shard] = label;

    const JsonValue* points = it->second;
    const JsonValue* covered = partial->find("covered");
    PG_CHECK(points != nullptr && points->kind == JsonValue::Kind::kArray &&
                 covered != nullptr &&
                 covered->kind == JsonValue::Kind::kArray &&
                 covered->items.size() == points->items.size(),
             "merge: " + label + ": malformed covered/points arrays");
    // Each shard must cover EXACTLY its stride {shard, shard+total, ...}:
    // a worker launched with different flags (or a truncated artifact)
    // fails here, not as silent grid holes.
    std::size_t expect = shard;
    for (std::size_t p = 0; p < points->items.size(); ++p) {
      const double c = covered->items[p].kind == JsonValue::Kind::kNumber
                           ? covered->items[p].number
                           : -1.0;
      const std::size_t index = size_member(points->items[p], "index",
                                            label);
      PG_CHECK(c == static_cast<double>(expect) && index == expect &&
                   expect < grid,
               "merge: " + label + ": covered indices do not match the "
               "shard " + std::to_string(shard) + "/" +
                   std::to_string(total) + " stride at position " +
                   std::to_string(p));
      expect += total;
    }
    PG_CHECK(expect >= grid,
             "merge: " + label + ": covers " +
                 std::to_string(points->items.size()) + " point(s) but its "
                 "stride has more; the partial is truncated");
  }
  if (shard_points.size() != total) {
    std::string missing;
    std::vector<std::size_t> missing_indices;
    for (std::size_t s = 0; s < total; ++s) {
      if (shard_points.count(s) == 0) {
        if (!missing.empty()) missing += ", ";
        missing += std::to_string(s);
        missing_indices.push_back(s);
      }
    }
    // Typed, not PG_CHECK: the CLI turns this into the machine-readable
    // missing_shards= line + exit 4 a retry wrapper keys off.
    throw MissingShardsError(
        "merge: " + std::to_string(shard_points.size()) + " of " +
            std::to_string(total) + " shard(s) present; missing shard(s): " +
            missing,
        std::move(missing_indices));
  }

  // Pass 2 -- rebuild the plan from the shared spec text and replay every
  // point through the SAME merge fold a single-process run uses, in plan
  // order, then recompute aggregates over the full grid.
  const ScenarioSpec spec = ScenarioSpec::parse(spec_text);
  const SweepPlan plan(spec);
  PG_CHECK(plan.size() == grid,
           "merge: spec text expands to " + std::to_string(plan.size()) +
               " grid point(s) but the partials declare " +
               std::to_string(grid));

  ScenarioResult merged;
  merged.spec = spec;
  merged.sweep_axes = plan.axis_keys();
  merged.add_metric("sweep_points", plan.size());
  std::vector<std::size_t> cursor(total, 0);
  for (std::size_t i = 0; i < grid; ++i) {
    const std::size_t shard = i % total;
    const std::string where =
        shard_labels[shard] + "[" + std::to_string(i) + "]";
    const ScenarioResult point =
        point_from_json(shard_points[shard]->items[cursor[shard]++], where);
    merge_sweep_point(plan.coordinates(i), point, merged);
  }
  add_sweep_aggregates(spec, merged);

  // Cache traffic is additive across workers (each ran its own window
  // over the shared directory); the differ excludes it, but the summed
  // report keeps `--merge` output honest for human readers.
  for (const auto& [label, artifact] : partials) {
    (void)label;
    const JsonValue* run = artifact.find("result");
    if (run == nullptr) continue;
    const JsonValue* cache = run->find("cache");
    if (cache == nullptr || cache->kind != JsonValue::Kind::kObject) continue;
    const auto num = [&](const char* key) -> std::size_t {
      const JsonValue* v = cache->find(key);
      return v != nullptr && v->kind == JsonValue::Kind::kNumber
                 ? static_cast<std::size_t>(v->number)
                 : 0;
    };
    const auto flag = [&](const char* key) {
      const JsonValue* v = cache->find(key);
      return v != nullptr && v->kind == JsonValue::Kind::kBool && v->boolean;
    };
    merged.cache.enabled = merged.cache.enabled || flag("enabled");
    merged.cache.disk_enabled = merged.cache.disk_enabled ||
                                flag("disk_enabled");
    if (merged.cache.disk_dir.empty()) {
      if (const JsonValue* dir = cache->find("disk_dir");
          dir != nullptr && dir->kind == JsonValue::Kind::kString) {
        merged.cache.disk_dir = dir->text;
      }
    }
    merged.cache.shards += num("shards");
    merged.cache.cells_total += num("cells_total");
    merged.cache.cells_retrained += num("cells_retrained");
    merged.cache.cache_hits += num("cache_hits");
    merged.cache.disk_entries_loaded += num("disk_entries_loaded");
    merged.cache.disk_entries_saved += num("disk_entries_saved");
    merged.cache.disk_shards_evicted += num("disk_shards_evicted");
    merged.cache.disk_max_bytes = std::max<std::uint64_t>(
        merged.cache.disk_max_bytes, num("disk_max_bytes"));
  }
  return merged;
}

int run_legacy_bench(const std::string& name, const std::string& json_out) {
  try {
    const ScenarioSpec spec = ScenarioRegistry::instance().make(name);
    const ScenarioResult result = run_scenario(spec);
    write_text(result, std::cout);
    if (!json_out.empty()) {
      std::ofstream out(json_out);
      PG_CHECK(static_cast<bool>(out), "cannot write " + json_out);
      write_json(result, out);
      std::cout << "wrote " << json_out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace pg::scenario
