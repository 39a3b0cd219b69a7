// Unit tests for pg::sim -- experiment setup, the pure-strategy sweep,
// curve fitting (isotonic regression) and the mixed-defense evaluation,
// all on reduced corpora so the suite stays fast.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/equilibrium.h"
#include "data/loader.h"
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
      static_cast<double>(ctx.train.size() + ctx.test.size());
  EXPECT_NEAR(ctx.train.size() / total, 0.7, 0.01);
  // 20% poison budget.
  EXPECT_EQ(ctx.poison_budget,
            static_cast<std::size_t>(0.2 * ctx.train.size()));
  // The corpus must be learnable: clean accuracy far above majority vote.
  const double majority =
      std::max(ctx.test.positive_fraction(), 1.0 - ctx.test.positive_fraction());
  EXPECT_GT(ctx.clean_accuracy, majority + 0.1);
}

ExperimentConfig tiny_config() {
  ExperimentConfig cfg = fast_config(7);
  cfg.corpus.n_instances = 200;
  cfg.svm.epochs = 10;
  return cfg;
}

TEST(ExperimentTest, DeterministicInSeed) {
  const ExperimentConfig cfg = tiny_config();
  const auto a = prepare_experiment(cfg);
  const auto b = prepare_experiment(cfg);
  EXPECT_EQ(a.clean_accuracy, b.clean_accuracy);
  EXPECT_EQ(a.train.size(), b.train.size());
  EXPECT_EQ(a.train.instance(0), b.train.instance(0));
}

TEST(ExperimentTest, FingerprintIsPinned) {
  // Every cell key and mixed-eval RNG stream mixes this word, so a change
  // to it moves committed results; it is pinned to the value it has
  // always had for this context.
  EXPECT_EQ(context_fingerprint(prepare_experiment(tiny_config())),
            0x53C7E50458E78A3BULL);
}

TEST(ExperimentTest, CleanBaselineIsMemoizedUnderTheContextKey) {
  const ExperimentConfig cfg = tiny_config();
  runtime::PayoffCache cache;
  std::uint64_t shard_id = 0;
  BaselineMemo memo{[&](std::uint64_t key) {
    shard_id = key;
    return &cache;
  }};
  const ExperimentContext cold = prepare_experiment(cfg, &memo);
  EXPECT_EQ(memo.retrained, 1u);
  EXPECT_EQ(memo.hits, 0u);
  EXPECT_EQ(shard_id, context_key(cold));
  const ExperimentContext warm = prepare_experiment(cfg, &memo);
  EXPECT_EQ(memo.retrained, 1u);
  EXPECT_EQ(memo.hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);

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
  BaselineMemo memo{[&cache](std::uint64_t) { return &cache; }};
  EXPECT_THROW((void)prepare_experiment(cfg, &memo), std::invalid_argument);
  // A claim left behind would block this call forever.
  EXPECT_THROW((void)prepare_experiment(cfg, &memo), std::invalid_argument);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(memo.retrained + memo.hits, 0u);
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
    ctx.train = std::move(split.train);
    ctx.test = std::move(split.test);
    return context_key(ctx);
  };
  const std::uint64_t original = key_after_writing(0.5);
  EXPECT_EQ(key_after_writing(0.5), original);
  EXPECT_NE(key_after_writing(0.75), original);
  std::remove(path.c_str());
}

TEST(ExperimentTest, BothClassesInBothSplits) {
  const auto& ctx = shared_ctx();
  EXPECT_GT(ctx.train.count_label(1), 0u);
  EXPECT_GT(ctx.train.count_label(-1), 0u);
  EXPECT_GT(ctx.test.count_label(1), 0u);
  EXPECT_GT(ctx.test.count_label(-1), 0u);
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
  const auto rows = run_support_sweep(ctx, game, 3, {}, eval);
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

}  // namespace
}  // namespace pg::sim
