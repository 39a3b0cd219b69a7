// Unit tests for pg::sim -- experiment setup, the pure-strategy sweep,
// curve fitting (isotonic regression), the mixed-defense evaluation and
// the memoized Algorithm 1 solve, all on reduced corpora so the suite
// stays fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/equilibrium.h"
#include "data/loader.h"
#include "obs/metrics.h"
#include "runtime/payoff_disk_cache.h"
#include "runtime/payoff_evaluator.h"
#include "sim/curve_fit.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"
#include "sim/support_sweep.h"

namespace pg::sim {
namespace {

const ExperimentContext& shared_ctx() {
  static const ExperimentContext ctx = [] {
    ExperimentConfig cfg = fast_config(42);
    cfg.corpus.n_instances = 700;
    cfg.svm.epochs = 50;
    return prepare_experiment(cfg);
  }();
  return ctx;
}

// -------------------------------------------------------------- experiment

TEST(ExperimentTest, PreparesPaperProtocol) {
  const auto& ctx = shared_ctx();
  EXPECT_EQ(ctx.corpus_source, "synthetic");
  // 70/30 split.
  const double total =
      static_cast<double>(ctx.train().size() + ctx.test().size());
  EXPECT_NEAR(ctx.train().size() / total, 0.7, 0.01);
  // 20% poison budget.
  EXPECT_EQ(ctx.poison_budget,
            static_cast<std::size_t>(0.2 * ctx.train().size()));
  // The corpus must be learnable: clean accuracy far above majority vote.
  const double majority = std::max(ctx.test().positive_fraction(),
                                   1.0 - ctx.test().positive_fraction());
  EXPECT_GT(ctx.clean_accuracy, majority + 0.1);
}

ExperimentConfig tiny_config() {
  ExperimentConfig cfg = fast_config(7);
  cfg.corpus.n_instances = 200;
  cfg.svm.epochs = 10;
  return cfg;
}

/// The function prepare_experiment takes, handing `evaluator` to every
/// context.
EvaluatorFor always(const runtime::PayoffEvaluator& evaluator) {
  return [&evaluator](std::uint64_t) -> const runtime::PayoffEvaluator& {
    return evaluator;
  };
}

TEST(ExperimentTest, DeterministicInSeed) {
  const ExperimentConfig cfg = tiny_config();
  const auto a = prepare_experiment(cfg);
  const auto b = prepare_experiment(cfg);
  EXPECT_EQ(a.clean_accuracy, b.clean_accuracy);
  EXPECT_EQ(a.train().size(), b.train().size());
  EXPECT_EQ(a.train().instance(0), b.train().instance(0));
}

TEST(ExperimentTest, FingerprintIsPinned) {
  // Every cell key and mixed-eval RNG stream mixes this word, so a change
  // to it moves committed results; it is pinned to the value it has
  // always had for this context.
  EXPECT_EQ(context_fingerprint(prepare_experiment(tiny_config())),
            0x53C7E50458E78A3BULL);
}

TEST(ExperimentTest, ContextKeyIsPinned) {
  // The key names the context's shard and mixes the results epoch: a
  // change that moves it (an epoch bump, a new context word) makes old
  // cache dirs go cold, so it is an edit here too.
  EXPECT_EQ(context_key(prepare_experiment(tiny_config())),
            0x97385B72384B82CFULL);
}

TEST(ExperimentTest, CleanBaselineIsMemoizedUnderTheContextKey) {
  const ExperimentConfig cfg = tiny_config();
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(runtime::serial_executor(), &cache);
  std::uint64_t shard_id = 0;
  const EvaluatorFor evaluator_for =
      [&](std::uint64_t key) -> const runtime::PayoffEvaluator& {
    shard_id = key;
    return evaluator;
  };
  const ExperimentContext cold = prepare_experiment(cfg, evaluator_for);
  EXPECT_EQ(evaluator.cells_computed(), 1u);
  EXPECT_EQ(evaluator.cache_hits(), 0u);
  EXPECT_EQ(shard_id, context_key(cold));
  const ExperimentContext warm = prepare_experiment(cfg, evaluator_for);
  EXPECT_EQ(evaluator.cells_computed(), 1u);
  EXPECT_EQ(evaluator.cache_hits(), 1u);
  // The warm call reads the baseline and its sibling, the test positive
  // fraction: two hits, two entries.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.size(), 2u);

  const ExperimentContext plain = prepare_experiment(cfg);
  for (const ExperimentContext* ctx : {&warm, &plain}) {
    EXPECT_EQ(ctx->clean_accuracy, cold.clean_accuracy);
    EXPECT_EQ(context_key(*ctx), context_key(cold));
    EXPECT_EQ(context_fingerprint(*ctx), context_fingerprint(cold));
  }

  // The key is known before training: the measured accuracy moves the
  // fingerprint but never the key.
  ExperimentContext other = cold;
  other.clean_accuracy += 0.125;
  EXPECT_EQ(context_key(other), context_key(cold));
  EXPECT_NE(context_fingerprint(other), context_fingerprint(cold));
}

TEST(ExperimentTest, FailedBaselineAbandonsItsClaim) {
  ExperimentConfig cfg = tiny_config();
  cfg.svm.epochs = 0;  // SvmTrainer rejects it
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(runtime::serial_executor(), &cache);
  EXPECT_THROW((void)prepare_experiment(cfg, always(evaluator)),
               std::invalid_argument);
  // A claim left behind would block this call forever.
  EXPECT_THROW((void)prepare_experiment(cfg, always(evaluator)),
               std::invalid_argument);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(evaluator.cells_computed() + evaluator.cache_hits(), 0u);
}

TEST(ExperimentTest, ContextKeyHashesLoadedCorpusContent) {
  const std::string path = ::testing::TempDir() + "/spambase_key.data";
  const auto key_after_writing = [&path](double feature_value) {
    {
      std::ofstream f(path);
      for (int i = 0; i < 40; ++i) {
        for (int c = 0; c < 57; ++c) {
          f << (i == 3 && c == 5 ? feature_value : (i + c) % 7 * 0.25) << ",";
        }
        f << (i % 2) << "\n";
      }
    }
    ExperimentContext ctx;
    ctx.config = tiny_config();
    ctx.corpus_source = path;
    util::Rng rng(ctx.config.seed);
    auto split = data::split_train_test(data::load_spambase(path),
                                        ctx.config.train_fraction, rng);
    ctx.set_split(std::move(split.train), std::move(split.test));
    return context_key(ctx);
  };
  const std::uint64_t original = key_after_writing(0.5);
  EXPECT_EQ(key_after_writing(0.5), original);
  EXPECT_NE(key_after_writing(0.75), original);
  std::remove(path.c_str());
}

#ifdef PG_OBS_DISABLED
constexpr bool kObs = false;
#else
constexpr bool kObs = true;
#endif

/// Calls of an obs.stage timer so far in this process (always 0 with obs
/// compiled out).
std::uint64_t stage_count(const char* name) {
  return obs::timer(name).stats().count;
}

/// Corpora built so far in this process.
std::uint64_t corpus_builds() { return stage_count("obs.stage.corpus"); }

TEST(ExperimentTest, WarmHitBuildsNoCorpusUntilFirstUse) {
  const ExperimentConfig cfg = tiny_config();
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(runtime::serial_executor(), &cache);
  const std::uint64_t before_cold = corpus_builds();
  const ExperimentContext cold = prepare_experiment(cfg, always(evaluator));
  if (kObs) EXPECT_EQ(corpus_builds() - before_cold, 1u);

  const std::uint64_t before = corpus_builds();
  const ExperimentContext warm = prepare_experiment(cfg, always(evaluator));
  const ExperimentContext copy = warm;
  EXPECT_EQ(evaluator.cache_hits(), 1u);
  EXPECT_EQ(context_key(warm), context_key(cold));
  EXPECT_EQ(context_fingerprint(warm), context_fingerprint(cold));
  EXPECT_EQ(warm.train_size(), cold.train_size());
  EXPECT_EQ(warm.test_size(), cold.test_size());
  EXPECT_EQ(warm.poison_budget, cold.poison_budget);
  EXPECT_EQ(warm.clean_accuracy, cold.clean_accuracy);
  EXPECT_EQ(warm.test_positive_fraction, cold.test_positive_fraction);
  EXPECT_EQ(cold.test_positive_fraction, cold.test().positive_fraction());
  if (kObs) EXPECT_EQ(corpus_builds(), before);

  // First use builds the split once; the copy shares it.
  EXPECT_EQ(warm.train().features().data(), cold.train().features().data());
  EXPECT_EQ(warm.train().labels(), cold.train().labels());
  EXPECT_EQ(warm.test().features().data(), cold.test().features().data());
  EXPECT_EQ(warm.test().labels(), cold.test().labels());
  EXPECT_EQ(&copy.train(), &warm.train());
  if (kObs) EXPECT_EQ(corpus_builds() - before, 1u);
}

TEST(ExperimentTest, ConcurrentFirstUseBuildsOnce) {
  const ExperimentConfig cfg = tiny_config();
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(runtime::serial_executor(), &cache);
  (void)prepare_experiment(cfg, always(evaluator));
  const ExperimentContext warm = prepare_experiment(cfg, always(evaluator));

  const std::uint64_t before = corpus_builds();
  const std::uint64_t geometries = stage_count("obs.stage.geometry");
  std::vector<const data::Dataset*> seen(4, nullptr);
  std::vector<const attack::ClassRadiusMap*> maps(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    // Each thread on its own copy of the context; half ask for the split
    // first, half for the geometry (which builds the split first).
    threads.emplace_back([&warm, &seen, &maps, i] {
      const ExperimentContext copy = warm;
      if (i % 2 == 0) seen[i] = &copy.train();
      maps[i] = &copy.clean_geometry();
      if (i % 2 == 1) seen[i] = &copy.train();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const data::Dataset* d : seen) EXPECT_EQ(d, seen.front());
  EXPECT_EQ(seen.front()->size(), warm.train_size());
  for (const attack::ClassRadiusMap* m : maps) EXPECT_EQ(m, maps.front());
  EXPECT_EQ(&warm.clean_geometry(), maps.front());
  EXPECT_TRUE(maps.front()->is_median_geometry_of(warm.train()));
  EXPECT_EQ(maps.front()->geometry(1).centroid,
            warm.train().class_coordinate_median(1));
  if (kObs) EXPECT_EQ(corpus_builds() - before, 1u);
  if (kObs) EXPECT_EQ(stage_count("obs.stage.geometry") - geometries, 1u);
}

TEST(ExperimentTest, ShardWithoutThePositiveFractionGainsIt) {
  const ExperimentConfig cfg = tiny_config();
  runtime::PayoffCache current;
  const runtime::PayoffEvaluator cold_evaluator(runtime::serial_executor(),
                                                &current);
  const ExperimentContext cold =
      prepare_experiment(cfg, always(cold_evaluator));
  ASSERT_NE(cold.clean_accuracy, cold.test_positive_fraction);

  // A shard as written before the sibling entry existed: the baseline
  // alone.
  runtime::PayoffCache old_shard;
  for (const auto& [key, value] : current.snapshot()) {
    if (value == cold.clean_accuracy) old_shard.preload({{key, value}});
  }
  ASSERT_EQ(old_shard.size(), 1u);
  const runtime::PayoffEvaluator evaluator(runtime::serial_executor(),
                                           &old_shard);
  const std::uint64_t before = corpus_builds();
  const ExperimentContext healed = prepare_experiment(cfg, always(evaluator));
  // Like every cell with a missing sibling: one baseline solve.
  EXPECT_EQ(evaluator.cache_hits(), 0u);
  EXPECT_EQ(evaluator.cells_computed(), 1u);
  EXPECT_EQ(healed.clean_accuracy, cold.clean_accuracy);
  EXPECT_EQ(healed.test_positive_fraction, cold.test_positive_fraction);
  EXPECT_EQ(old_shard.snapshot(), current.snapshot());
  if (kObs) EXPECT_EQ(corpus_builds() - before, 1u);

  // Healed: the next warm call builds nothing.
  const ExperimentContext warm = prepare_experiment(cfg, always(evaluator));
  EXPECT_EQ(warm.test_positive_fraction, cold.test_positive_fraction);
  if (kObs) EXPECT_EQ(corpus_builds() - before, 1u);
}

TEST(ExperimentTest, BuiltSplitMustMatchItsPlan) {
  const ExperimentConfig cfg = tiny_config();
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(runtime::serial_executor(), &cache);
  (void)prepare_experiment(cfg, always(evaluator));
  ExperimentContext warm = prepare_experiment(cfg, always(evaluator));
  warm.config.corpus.n_instances += 10;
  try {
    (void)warm.train();
    ADD_FAILURE() << "a split larger than its plan was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("differs from the planned"), std::string::npos)
        << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  // The failed build left the context retryable.
  warm.config = cfg;
  EXPECT_EQ(warm.train().size(), warm.train_size());
}

TEST(ExperimentTest, BothClassesInBothSplits) {
  const auto& ctx = shared_ctx();
  EXPECT_GT(ctx.train().count_label(1), 0u);
  EXPECT_GT(ctx.train().count_label(-1), 0u);
  EXPECT_GT(ctx.test().count_label(1), 0u);
  EXPECT_GT(ctx.test().count_label(-1), 0u);
}

// -------------------------------------------------------------- pure_sweep

TEST(PureSweepTest, GridGeneration) {
  const auto g = sweep_grid(0.4, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 0.4);
  EXPECT_THROW((void)sweep_grid(0.0, 5), std::invalid_argument);
  EXPECT_THROW((void)sweep_grid(0.4, 1), std::invalid_argument);
}

TEST(PureSweepTest, ProducesBothSeries) {
  const auto& ctx = shared_ctx();
  const auto sweep = run_pure_sweep(ctx, {0.0, 0.15, 0.3}, 1);
  ASSERT_EQ(sweep.points.size(), 3u);
  for (const auto& pt : sweep.points) {
    EXPECT_GT(pt.accuracy_no_attack, 0.5);
    EXPECT_GT(pt.accuracy_attacked, 0.3);
    // The attack can only hurt.
    EXPECT_LE(pt.accuracy_attacked, pt.accuracy_no_attack + 0.02);
    // Boundary placement survives its own filter.
    EXPECT_GT(pt.poison_survived_fraction, 0.85);
  }
}

TEST(PureSweepTest, StageTimersCountTheArmsRun) {
  const ExperimentConfig cfg = fast_config(11);
  const std::array<const char*, 4> stages = {
      "obs.stage.attack", "obs.stage.filter", "obs.stage.scale",
      "obs.stage.train"};
  const auto counts = [&stages] {
    std::array<std::uint64_t, 4> out{};
    for (std::size_t i = 0; i < stages.size(); ++i) {
      out[i] = stage_count(stages[i]);
    }
    return out;
  };
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(runtime::serial_executor(), &cache);
  const std::vector<double> grid = sweep_grid(0.3, 3);
  const std::size_t reps = 2;

  const auto before = counts();
  const ExperimentContext cold = prepare_experiment(cfg, always(evaluator));
  ASSERT_GT(cold.poison_budget, 0u);
  (void)run_pure_sweep(cold, grid, reps, evaluator);
  const auto after_cold = counts();
  // Each cell runs a clean and an attacked arm. Both arms filter when the
  // cell's strength is above 0, and every arm standardizes and trains; so
  // does the clean baseline's one arm. Each attack's depth search also
  // trains one probe SVM per depth offset, four here.
  const auto filtered = static_cast<std::size_t>(
      std::count_if(grid.begin(), grid.end(), [](double p) { return p > 0.0; }));
  const std::size_t arms = 2 * grid.size() * reps + 1;
  const std::size_t probes = 4 * grid.size() * reps;
  if (kObs) {
    EXPECT_EQ(after_cold[0] - before[0], grid.size() * reps);
    EXPECT_EQ(after_cold[1] - before[1], 2 * filtered * reps);
    EXPECT_EQ(after_cold[2] - before[2], arms);
    EXPECT_EQ(after_cold[3] - before[3], arms + probes);
  }

  // Warm: every cell and the baseline come from the cache.
  const ExperimentContext warm = prepare_experiment(cfg, always(evaluator));
  (void)run_pure_sweep(warm, grid, reps, evaluator);
  EXPECT_EQ(counts(), after_cold);
  EXPECT_EQ(evaluator.cells_computed(), 1 + grid.size() * reps);
  EXPECT_EQ(evaluator.cache_hits(), 1 + grid.size() * reps);
}

TEST(PureSweepTest, FilterMitigationShape) {
  // The paper's Fig-1 shape: some interior filter strictly beats no
  // filter under attack.
  const auto& ctx = shared_ctx();
  const auto sweep = run_pure_sweep(ctx, {0.0, 0.15, 0.25}, 2);
  const double at_zero = sweep.points[0].accuracy_attacked;
  const double best_interior = std::max(sweep.points[1].accuracy_attacked,
                                        sweep.points[2].accuracy_attacked);
  EXPECT_GT(best_interior, at_zero + 0.02);
}

// --------------------------------------------------------------- curve_fit

TEST(IsotonicTest, NonDecreasingFixesViolations) {
  const auto y = isotonic_non_decreasing({1.0, 3.0, 2.0, 4.0});
  ASSERT_EQ(y.size(), 4u);
  for (std::size_t i = 1; i < y.size(); ++i) EXPECT_GE(y[i], y[i - 1]);
  // PAV pools the violating pair {3, 2} to its mean.
  EXPECT_DOUBLE_EQ(y[1], 2.5);
  EXPECT_DOUBLE_EQ(y[2], 2.5);
}

TEST(IsotonicTest, AlreadyMonotoneUnchanged) {
  const std::vector<double> in{1.0, 2.0, 3.0};
  EXPECT_EQ(isotonic_non_decreasing(in), in);
}

TEST(IsotonicTest, NonIncreasingMirrors) {
  const auto y = isotonic_non_increasing({4.0, 2.0, 3.0, 1.0});
  for (std::size_t i = 1; i < y.size(); ++i) EXPECT_LE(y[i], y[i - 1]);
  EXPECT_DOUBLE_EQ(y[1], 2.5);
  EXPECT_DOUBLE_EQ(y[2], 2.5);
}

TEST(IsotonicTest, PreservesMean) {
  const std::vector<double> in{5.0, 1.0, 4.0, 2.0};
  const auto out = isotonic_non_decreasing(in);
  double si = 0.0;
  double so = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    si += in[i];
    so += out[i];
  }
  EXPECT_NEAR(si, so, 1e-12);
}

TEST(IsotonicTest, EmptyAndSingle) {
  EXPECT_TRUE(isotonic_non_decreasing({}).empty());
  EXPECT_EQ(isotonic_non_decreasing({7.0}), std::vector<double>{7.0});
}

TEST(CurveFitTest, ProducesMonotoneCurves) {
  const auto& ctx = shared_ctx();
  const auto sweep = run_pure_sweep(ctx, sweep_grid(0.35, 6), 1);
  const auto curves = fit_payoff_curves(sweep);
  double prev_e = curves.damage(0.0);
  double prev_g = curves.cost(0.0);
  for (double p = 0.05; p <= 0.35; p += 0.05) {
    EXPECT_LE(curves.damage(p), prev_e + 1e-12);
    EXPECT_GE(curves.cost(p), prev_g - 1e-12);
    prev_e = curves.damage(p);
    prev_g = curves.cost(p);
  }
  EXPECT_NEAR(curves.cost(0.0), 0.0, 1e-12);
  EXPECT_GE(curves.damage(0.0), 0.0);
}

TEST(CurveFitTest, DamageScaleMatchesAccuracyGap) {
  const auto& ctx = shared_ctx();
  const auto sweep = run_pure_sweep(ctx, {0.0, 0.2}, 1);
  const auto curves = fit_payoff_curves(sweep);
  // N * E(0) should be close to the no-filter accuracy gap (before the
  // isotonic smoothing shuffles a little mass around).
  const double gap = sweep.points[0].accuracy_no_attack -
                     sweep.points[0].accuracy_attacked;
  EXPECT_NEAR(curves.damage(0.0) * static_cast<double>(sweep.poison_budget),
              gap, 0.1);
}

TEST(CurveFitTest, Validation) {
  PureSweepResult empty;
  EXPECT_THROW((void)fit_payoff_curves(empty), std::invalid_argument);
}

// -------------------------------------------------------------- mixed_eval

TEST(MixedEvalTest, EvaluatesSupportPlacements) {
  const auto& ctx = shared_ctx();
  const defense::MixedDefenseStrategy s({0.1, 0.25}, {0.5, 0.5});
  MixedEvalConfig cfg;
  cfg.draws = 1;
  const auto eval = evaluate_mixed_defense(ctx, s, cfg);
  ASSERT_EQ(eval.attacker_placements.size(), 2u);
  ASSERT_EQ(eval.accuracy_by_placement.size(), 2u);
  for (double a : eval.accuracy_by_placement) {
    EXPECT_GT(a, 0.4);
    EXPECT_LE(a, 1.0);
  }
  EXPECT_LE(eval.adversarial_accuracy,
            *std::max_element(eval.accuracy_by_placement.begin(),
                              eval.accuracy_by_placement.end()) + 1e-12);
  EXPECT_GT(eval.no_attack_accuracy, 0.7);
}

TEST(MixedEvalTest, ExtraPlacementsIncluded) {
  const auto& ctx = shared_ctx();
  const defense::MixedDefenseStrategy s({0.1, 0.25}, {0.5, 0.5});
  MixedEvalConfig cfg;
  cfg.draws = 1;
  cfg.include_support_placements = false;
  cfg.extra_placements = {0.05};
  const auto eval = evaluate_mixed_defense(ctx, s, cfg);
  ASSERT_EQ(eval.attacker_placements.size(), 1u);
  EXPECT_DOUBLE_EQ(eval.attacker_placements[0], 0.05);
}

TEST(MixedEvalTest, BestPureDefensePicksArgmax) {
  PureSweepResult sweep;
  sweep.points = {{0.0, 0.9, 0.60, 1.0},
                  {0.1, 0.9, 0.80, 1.0},
                  {0.2, 0.9, 0.75, 1.0}};
  const auto best = best_pure_defense(sweep);
  EXPECT_DOUBLE_EQ(best.best_fraction, 0.1);
  EXPECT_DOUBLE_EQ(best.best_accuracy, 0.80);
}

// ------------------------------------------------------------ support_sweep

TEST(SupportSweepTest, RunsAllSizesAndRecordsTiming) {
  const auto& ctx = shared_ctx();
  const auto sweep = run_pure_sweep(ctx, sweep_grid(0.35, 5), 1);
  const auto curves = fit_payoff_curves(sweep);
  const core::PoisoningGame game(curves, ctx.poison_budget);

  MixedEvalConfig eval;
  eval.draws = 1;
  const auto rows = run_support_sweep(ctx, game, 1, 3, {}, eval);
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].support_size, i + 1);
    EXPECT_EQ(rows[i].strategy.support_size(), i + 1);
    EXPECT_GE(rows[i].solve_seconds, 0.0);
    EXPECT_GT(rows[i].adversarial_accuracy, 0.4);
  }
  // Predicted loss is non-increasing in n.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i].predicted_loss, rows[i - 1].predicted_loss + 1e-6);
  }
}

// ------------------------------------------------------------ solve_defense

/// One Algorithm 1 input.
struct SolveCase {
  core::PoisoningGame game;
  core::Algorithm1Config config;
};

core::PoisoningGame analytic_game(std::size_t budget = 100) {
  return core::PoisoningGame(
      core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4), budget);
}

/// Every field solve_defense returns equals the direct solve's, and the
/// trace stays empty.
void expect_same_solution(const core::DefenseSolution& got,
                          const core::DefenseSolution& want) {
  EXPECT_EQ(got.strategy.removal_fractions(),
            want.strategy.removal_fractions());
  EXPECT_EQ(got.strategy.probabilities(), want.strategy.probabilities());
  EXPECT_EQ(got.defender_loss, want.defender_loss);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_TRUE(got.trace.empty());
}

TEST(DefenseSolveTest, HitEqualsCompute) {
  // The analytic game at n = 1..5 and a measured game at n = 3, each
  // solved cold, warm, and from a shard saved to disk and loaded into a
  // fresh cache: all three equal the direct solve bit for bit.
  std::vector<SolveCase> cases;
  for (std::size_t n = 1; n <= 5; ++n) {
    core::Algorithm1Config config;
    config.support_size = n;
    cases.push_back({analytic_game(), config});
  }
  const auto& ctx = shared_ctx();
  cases.push_back(
      {core::PoisoningGame(
           fit_payoff_curves(run_pure_sweep(ctx, sweep_grid(0.35, 5), 1)),
           ctx.poison_budget),
       {}});

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pg_defense_solve_test";
  std::filesystem::remove_all(dir);
  const runtime::DiskPayoffCache disk(dir.string());
  for (std::uint64_t shard = 0; shard < cases.size(); ++shard) {
    const SolveCase& c = cases[shard];
    SCOPED_TRACE("case " + std::to_string(shard));
    const core::DefenseSolution want =
        core::compute_optimal_defense(c.game, c.config);
    const std::size_t width = 2 * c.config.support_size + 3;

    runtime::PayoffCache cache;
    const runtime::PayoffEvaluator evaluator(runtime::serial_executor(),
                                             &cache);
    expect_same_solution(solve_defense(c.game, c.config, evaluator), want);
    EXPECT_EQ(evaluator.cells_computed(), 1u);
    EXPECT_EQ(evaluator.cache_hits(), 0u);
    EXPECT_EQ(cache.size(), width);
    expect_same_solution(solve_defense(c.game, c.config, evaluator), want);
    EXPECT_EQ(evaluator.cells_computed(), 1u);
    EXPECT_EQ(evaluator.cache_hits(), 1u);

    ASSERT_EQ(disk.save(shard, cache), width);
    runtime::PayoffCache loaded;
    ASSERT_EQ(disk.load(shard, loaded), width);
    const runtime::PayoffEvaluator reloaded(runtime::serial_executor(),
                                            &loaded);
    expect_same_solution(solve_defense(c.game, c.config, reloaded), want);
    EXPECT_EQ(reloaded.cells_computed(), 0u);
    EXPECT_EQ(reloaded.cache_hits(), 1u);
  }
  std::filesystem::remove_all(dir);
}

/// `curve` with its middle knot's x (or y) moved a little; the xs stay
/// strictly increasing.
util::PiecewiseLinear moved_knot(const util::PiecewiseLinear& curve,
                                 bool move_x) {
  std::vector<double> xs = curve.xs();
  std::vector<double> ys = curve.ys();
  const std::size_t mid = xs.size() / 2;
  if (move_x) {
    xs[mid] += 0.25 * (xs[mid + 1] - xs[mid]);
  } else {
    ys[mid] *= 1.01;
  }
  return util::PiecewiseLinear(std::move(xs), std::move(ys));
}

TEST(DefenseSolveTest, KeyCoversEveryInput) {
  // Each input the solve reads, perturbed alone, must miss the entries of
  // the base solve: it computes its own solution, equal to the direct
  // solve of its own input.
  const core::PoisoningGame base = analytic_game();
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(runtime::serial_executor(), &cache);
  (void)solve_defense(base, {}, evaluator);
  ASSERT_EQ(evaluator.cells_computed(), 1u);

  const core::PayoffCurves& curves = base.curves();
  std::vector<std::pair<std::string, SolveCase>> cases = {
      {"poison budget", {analytic_game(101), {}}},
      {"damage x knot",
       {core::PoisoningGame(
            core::PayoffCurves(moved_knot(curves.damage_curve(), true),
                               curves.cost_curve()),
            100),
        {}}},
      {"damage y knot",
       {core::PoisoningGame(
            core::PayoffCurves(moved_knot(curves.damage_curve(), false),
                               curves.cost_curve()),
            100),
        {}}},
      {"cost x knot",
       {core::PoisoningGame(
            core::PayoffCurves(curves.damage_curve(),
                               moved_knot(curves.cost_curve(), true)),
            100),
        {}}},
      {"cost y knot",
       {core::PoisoningGame(
            core::PayoffCurves(curves.damage_curve(),
                               moved_knot(curves.cost_curve(), false)),
            100),
        {}}},
  };
  const auto with = [&](const char* name, auto field, auto value) {
    core::Algorithm1Config config;
    config.*field = value;
    cases.push_back({name, {base, config}});
  };
  using Config = core::Algorithm1Config;
  with("support_size", &Config::support_size, std::size_t{4});
  with("epsilon", &Config::epsilon, 1e-7);
  with("max_iterations", &Config::max_iterations, std::size_t{100});
  with("learning_rate", &Config::learning_rate, 0.02);
  with("fd_step", &Config::fd_step, 2e-4);
  with("min_gap", &Config::min_gap, 2e-3);
  with("support_floor", &Config::support_floor, 0.03);
  with("damage_floor", &Config::damage_floor, 1e-5);

  for (const auto& [name, c] : cases) {
    SCOPED_TRACE(name);
    const std::size_t computed = evaluator.cells_computed();
    expect_same_solution(solve_defense(c.game, c.config, evaluator),
                         core::compute_optimal_defense(c.game, c.config));
    EXPECT_EQ(evaluator.cells_computed(), computed + 1);
  }
  EXPECT_EQ(evaluator.cache_hits(), 0u);
}

TEST(DefenseSolveTest, ConcurrentSolvesOfOneGameComputeOnce) {
  // Two threads solve one game on one cache: single-flight lets one
  // compute while the other waits for (or hits) its solution.
  const core::PoisoningGame game = analytic_game();
  core::Algorithm1Config config;
  config.support_size = 5;
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(runtime::serial_executor(), &cache);
  std::array<std::optional<core::DefenseSolution>, 2> solutions;
  std::vector<std::thread> threads;
  for (auto& solution : solutions) {
    threads.emplace_back([&game, &config, &evaluator, &solution] {
      solution = solve_defense(game, config, evaluator);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(evaluator.cells_computed(), 1u);
  EXPECT_EQ(evaluator.cache_hits(), 1u);
  ASSERT_TRUE(solutions[0].has_value() && solutions[1].has_value());
  expect_same_solution(*solutions[0], *solutions[1]);
  expect_same_solution(*solutions[0],
                       core::compute_optimal_defense(game, config));
}

}  // namespace
}  // namespace pg::sim
