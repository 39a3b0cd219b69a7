// Tests for the SIMD kernel tier (la/simd.h), the SoA batched trainer
// (ml/batch_trainer.h), and the batched retraining paths wired through
// the payoff evaluator, the pure sweep, and the scenario engine.
//
// The load-bearing contract under test: the batched trainer is
// BIT-IDENTICAL per lane to the sequential trainers at every tier (the
// lockstep kernels preserve each lane's accumulation order and AVX2 is
// compiled without FMA), while the horizontal kernels (dot/matvec)
// reassociate and carry the documented 1e-9 tolerance. Tests that force
// a tier only run tiers detect_tier() says this host can execute, so
// the suite passes unchanged on scalar-only builds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <vector>

#include "data/synthetic.h"
#include "defense/distance_filter.h"
#include "defense/pipeline.h"
#include "la/simd.h"
#include "ml/batch_trainer.h"
#include "ml/logreg.h"
#include "ml/svm.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/payoff_evaluator.h"
#include "scenario/diff.h"
#include "scenario/engine.h"
#include "scenario/result.h"
#include "scenario/spec.h"
#include "sim/experiment.h"
#include "sim/pure_sweep.h"
#include "util/rng.h"

#ifndef PG_GOLDEN_DIR
#error "PG_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif

namespace pg {
namespace {

using la::simd::Tier;

/// The documented tolerance of the opt-in simd paths (README "Kernel
/// tiers"): horizontal kernels reassociate; everything per-lane is exact.
constexpr double kSimdTolerance = 1e-9;

std::vector<Tier> executable_tiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (la::simd::detect_tier() >= Tier::kSse2) tiers.push_back(Tier::kSse2);
  if (la::simd::detect_tier() >= Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  return tiers;
}

data::Dataset blobs(std::size_t n, std::uint64_t seed, std::size_t dim = 6) {
  util::Rng rng(seed);
  return data::make_gaussian_blobs(n, dim, 4.0, rng);
}

// ------------------------------------------------------------ tier model

TEST(SimdTierTest, NamesRoundTrip) {
  EXPECT_STREQ(la::simd::tier_name(Tier::kScalar), "scalar");
  EXPECT_STREQ(la::simd::tier_name(Tier::kSse2), "sse2");
  EXPECT_STREQ(la::simd::tier_name(Tier::kAvx2), "avx2");
  EXPECT_EQ(la::simd::parse_tier("scalar"), Tier::kScalar);
  EXPECT_EQ(la::simd::parse_tier("sse2"), Tier::kSse2);
  EXPECT_EQ(la::simd::parse_tier("avx2"), Tier::kAvx2);
  EXPECT_THROW((void)la::simd::parse_tier("avx512"), std::invalid_argument);
  EXPECT_THROW((void)la::simd::parse_tier(""), std::invalid_argument);
}

TEST(SimdTierTest, DetectionIsStableAndOrdered) {
  const Tier first = la::simd::detect_tier();
  EXPECT_EQ(la::simd::detect_tier(), first);  // cached
  EXPECT_GE(first, Tier::kScalar);
  EXPECT_LE(first, Tier::kAvx2);
}

TEST(SimdTierTest, ResolveHonorsExplicitRequestAndRejectsTooHigh) {
  EXPECT_EQ(la::simd::resolve_tier("scalar"), Tier::kScalar);
  if (la::simd::detect_tier() < Tier::kAvx2) {
    EXPECT_THROW((void)la::simd::resolve_tier("avx2"), std::invalid_argument);
  } else {
    EXPECT_EQ(la::simd::resolve_tier("avx2"), Tier::kAvx2);
  }
}

TEST(SimdTierTest, OpsTableMatchesTierAndWidth) {
  for (const Tier tier : executable_tiers()) {
    const la::simd::Ops& ops = la::simd::ops(tier);
    EXPECT_EQ(ops.tier, tier);
    const std::size_t expected_width =
        tier == Tier::kScalar ? 1u : (tier == Tier::kSse2 ? 2u : 4u);
    EXPECT_EQ(ops.width, expected_width);
    EXPECT_NE(ops.dot, nullptr);
    EXPECT_NE(ops.axpy, nullptr);
    EXPECT_NE(ops.scale, nullptr);
    EXPECT_NE(ops.matvec, nullptr);
    EXPECT_NE(ops.soa_gather, nullptr);
    EXPECT_NE(ops.soa_score, nullptr);
    EXPECT_NE(ops.soa_affine_step, nullptr);
    EXPECT_NE(ops.soa_logreg_step, nullptr);
    EXPECT_NE(ops.soa_affine_fused, nullptr);
    EXPECT_NE(ops.soa_logreg_fused, nullptr);
  }
}

// ----------------------------------------------------- kernel agreement

TEST(SimdKernelTest, HorizontalKernelsAgreeAcrossTiers) {
  util::Rng rng(11);
  const std::size_t n = 257;  // odd: exercises every tail path
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1.0, 1.0);
    y[i] = rng.uniform(-1.0, 1.0);
  }
  const la::simd::Ops& ref = la::simd::ops(Tier::kScalar);
  const double ref_dot = ref.dot(x.data(), y.data(), n);
  for (const Tier tier : executable_tiers()) {
    SCOPED_TRACE(la::simd::tier_name(tier));
    const la::simd::Ops& ops = la::simd::ops(tier);
    EXPECT_NEAR(ops.dot(x.data(), y.data(), n), ref_dot, kSimdTolerance);

    // axpy and scale are element-wise: exact on every tier.
    std::vector<double> ya = y, yb = y;
    ref.axpy(0.75, x.data(), ya.data(), n);
    ops.axpy(0.75, x.data(), yb.data(), n);
    EXPECT_EQ(ya, yb);
    std::vector<double> xa = x, xb = x;
    ref.scale(xa.data(), 1.25, n);
    ops.scale(xb.data(), 1.25, n);
    EXPECT_EQ(xa, xb);

    const std::size_t rows = 13, cols = 19;
    std::vector<double> a(rows * cols);
    for (double& v : a) v = rng.uniform(-1.0, 1.0);
    std::vector<double> out_ref(rows), out(rows);
    ref.matvec(a.data(), rows, cols, x.data(), out_ref.data());
    ops.matvec(a.data(), rows, cols, x.data(), out.data());
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_NEAR(out[r], out_ref[r], kSimdTolerance);
    }
  }
}

// --------------------------------------------------------- plan_batches

TEST(BatchPlanTest, PartitionsBySizeDescendingDeterministically) {
  const std::vector<std::size_t> sizes = {5, 9, 9, 2, 7, 9, 1};
  const auto batches = ml::plan_batches(sizes, 4);
  ASSERT_EQ(batches.size(), 2u);
  // Descending by size, ties by ascending index.
  EXPECT_EQ(batches[0], (std::vector<std::size_t>{1, 2, 5, 4}));
  EXPECT_EQ(batches[1], (std::vector<std::size_t>{0, 3, 6}));
  // Every index exactly once.
  std::vector<std::size_t> all;
  for (const auto& b : batches) all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  std::vector<std::size_t> expect(sizes.size());
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(all, expect);
}

// ------------------------------------------- batched trainer bit-identity

/// K cells with deliberately RAGGED sizes (and K possibly not a multiple
/// of the vector width), each with its own dataset and RNG stream.
std::vector<ml::BatchCell> make_cells(const std::vector<data::Dataset>& data) {
  std::vector<ml::BatchCell> cells;
  for (std::size_t k = 0; k < data.size(); ++k) {
    cells.push_back({&data[k], util::Rng(1000 + 17 * k)});
  }
  return cells;
}

TEST(BatchedTrainerTest, SvmBitIdenticalToSequentialForEveryWidth) {
  ml::SvmConfig cfg;
  cfg.epochs = 15;
  for (const Tier tier : executable_tiers()) {
    const ml::BatchedLinearTrainer trainer(tier);
    for (std::size_t K = 1; K <= 8; ++K) {
      SCOPED_TRACE(std::string(la::simd::tier_name(tier)) + " K=" +
                   std::to_string(K));
      std::vector<data::Dataset> data;
      for (std::size_t k = 0; k < K; ++k) {
        data.push_back(blobs(40 + 13 * k, 7 * K + k));  // ragged sizes
      }
      auto cells = make_cells(data);
      const auto models = trainer.train_svm(cfg, cells);
      ASSERT_EQ(models.size(), K);
      for (std::size_t k = 0; k < K; ++k) {
        util::Rng rng(1000 + 17 * k);
        const ml::LinearModel seq = ml::SvmTrainer(cfg).train(data[k], rng);
        EXPECT_EQ(models[k].bias(), seq.bias()) << "lane " << k;
        ASSERT_EQ(models[k].weights().size(), seq.weights().size());
        for (std::size_t c = 0; c < seq.weights().size(); ++c) {
          EXPECT_EQ(models[k].weights()[c], seq.weights()[c])
              << "lane " << k << " coeff " << c;
        }
      }
    }
  }
}

TEST(BatchedTrainerTest, LogRegBitIdenticalToSequential) {
  ml::LogRegConfig cfg;
  cfg.epochs = 10;
  for (const Tier tier : executable_tiers()) {
    const ml::BatchedLinearTrainer trainer(tier);
    const std::size_t K = 6;  // ragged + not a width multiple
    SCOPED_TRACE(la::simd::tier_name(tier));
    std::vector<data::Dataset> data;
    for (std::size_t k = 0; k < K; ++k) {
      data.push_back(blobs(30 + 11 * k, 90 + k));
    }
    auto cells = make_cells(data);
    const auto models = trainer.train_logreg(cfg, cells);
    ASSERT_EQ(models.size(), K);
    for (std::size_t k = 0; k < K; ++k) {
      util::Rng rng(1000 + 17 * k);
      const ml::LinearModel seq = ml::LogRegTrainer(cfg).train(data[k], rng);
      EXPECT_EQ(models[k].bias(), seq.bias()) << "lane " << k;
      for (std::size_t c = 0; c < seq.weights().size(); ++c) {
        EXPECT_EQ(models[k].weights()[c], seq.weights()[c])
            << "lane " << k << " coeff " << c;
      }
    }
  }
}

TEST(BatchedTrainerTest, AdvancesRngExactlyLikeSequential) {
  // The cells' rng streams must be consumed identically, so a caller can
  // keep using them afterwards without drift.
  ml::SvmConfig cfg;
  cfg.epochs = 5;
  std::vector<data::Dataset> data = {blobs(30, 1), blobs(45, 2)};
  auto cells = make_cells(data);
  const ml::BatchedLinearTrainer trainer(Tier::kScalar);
  (void)trainer.train_svm(cfg, cells);
  for (std::size_t k = 0; k < data.size(); ++k) {
    util::Rng rng(1000 + 17 * k);
    (void)ml::SvmTrainer(cfg).train(data[k], rng);
    EXPECT_EQ(cells[k].rng.uniform(), rng.uniform()) << "lane " << k;
  }
}

TEST(BatchedTrainerTest, RejectsMalformedBatches) {
  const ml::BatchedLinearTrainer trainer(Tier::kScalar);
  ml::SvmConfig cfg;
  std::vector<ml::BatchCell> empty;
  EXPECT_THROW((void)trainer.train_svm(cfg, empty), std::invalid_argument);

  // Mismatched dims.
  data::Dataset a = blobs(20, 3, 4);
  data::Dataset b = blobs(20, 4, 5);
  std::vector<ml::BatchCell> mixed = {{&a, util::Rng(1)}, {&b, util::Rng(2)}};
  EXPECT_THROW((void)trainer.train_svm(cfg, mixed), std::invalid_argument);

  // Too many lanes.
  data::Dataset c = blobs(10, 5, 3);
  std::vector<ml::BatchCell> wide(la::simd::kMaxSoaLanes + 1,
                                  {&c, util::Rng(3)});
  EXPECT_THROW((void)trainer.train_svm(cfg, wide), std::invalid_argument);
}

// --------------------------------------------------- pipeline split path

TEST(PipelineSplitTest, PrepareTrainFinishMatchesRun) {
  const data::Dataset train = blobs(120, 21);
  const data::Dataset test = blobs(60, 22);
  defense::PipelineConfig pcfg;
  pcfg.svm.epochs = 20;
  const defense::Pipeline pipeline(pcfg);
  defense::DistanceFilterConfig fcfg;
  fcfg.removal_fraction = 0.15;
  const defense::DistanceFilter filter(fcfg);

  util::Rng rng_a(5);
  const auto direct = pipeline.run(train, test, nullptr, 0, &filter, rng_a);

  util::Rng rng_b(5);
  auto prep = pipeline.prepare(train, test, nullptr, 0, &filter, rng_b);
  const ml::LinearModel model =
      ml::SvmTrainer(pcfg.svm).train(prep.train, prep.train_rng);
  const auto split = defense::Pipeline::finish(std::move(prep), model);

  EXPECT_EQ(direct.test_accuracy, split.test_accuracy);
  EXPECT_EQ(direct.train_size, split.train_size);
  EXPECT_EQ(direct.model.bias(), split.model.bias());
  EXPECT_EQ(direct.model.weights(), split.model.weights());
}

// ------------------------------------------- evaluate_cells_batched

TEST(EvaluatorBatchedTest, MatchesPerCellEvaluationAndCacheSemantics) {
  runtime::SerialExecutor exec;
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(exec, &cache);
  const std::size_t count = 10;
  const auto key = [](std::size_t i) { return 0x9000 + i; };
  const auto batch = [](const std::vector<std::size_t>& idx,
                        std::vector<double>& values) {
    for (const std::size_t i : idx) values[i] = 2.0 * static_cast<double>(i);
  };
  const auto cold = evaluator.evaluate_cells_batched(count, batch, key);
  ASSERT_EQ(cold.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(cold[i], 2.0 * static_cast<double>(i));
  }
  EXPECT_EQ(evaluator.cells_computed(), count);
  EXPECT_EQ(cache.stats().misses, count);

  // Warm rerun: every cell is a hit, batch() never runs.
  const auto warm = evaluator.evaluate_cells_batched(
      count,
      [](const std::vector<std::size_t>&, std::vector<double>&) {
        FAIL() << "warm rerun must not recompute";
      },
      key);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(evaluator.cells_computed(), count);
  EXPECT_EQ(cache.stats().hits, count);

  // Keyless: always recomputes, never touches the cache.
  const auto keyless = evaluator.evaluate_cells_batched(count, batch);
  EXPECT_EQ(keyless, cold);
  EXPECT_EQ(cache.stats().misses, count);
}

TEST(EvaluatorBatchedTest, AbandonOnThrowLeavesCacheReusable) {
  runtime::SerialExecutor exec;
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(exec, &cache);
  const auto key = [](std::size_t i) { return 0xA000 + i; };
  EXPECT_THROW(
      (void)evaluator.evaluate_cells_batched(
          3,
          [](const std::vector<std::size_t>&, std::vector<double>&) {
            throw std::runtime_error("boom");
          },
          key),
      std::runtime_error);
  // The claims were abandoned, so a second attempt can own them again.
  const auto ok = evaluator.evaluate_cells_batched(
      3,
      [](const std::vector<std::size_t>& idx, std::vector<double>& values) {
        for (const std::size_t i : idx) values[i] = 1.0;
      },
      key);
  EXPECT_EQ(ok, (std::vector<double>{1.0, 1.0, 1.0}));
}

// --------------------------------------------------- batched pure sweep

const sim::ExperimentContext& sweep_ctx() {
  static const sim::ExperimentContext ctx = [] {
    sim::ExperimentConfig cfg = sim::fast_config(42);
    cfg.corpus.n_instances = 300;
    cfg.svm.epochs = 15;
    return sim::prepare_experiment(cfg);
  }();
  return ctx;
}

TEST(BatchedSweepTest, MatchesReferenceWithinTolerance) {
  const auto& ctx = sweep_ctx();
  const std::vector<double> grid = {0.0, 0.1, 0.2, 0.3};
  const auto reference = sim::run_pure_sweep(ctx, grid, 2);
  for (const Tier tier : executable_tiers()) {
    SCOPED_TRACE(la::simd::tier_name(tier));
    sim::RetrainKernel kernel;
    kernel.tier = tier;
    const auto batched =
        sim::run_pure_sweep(ctx, grid, 2, nullptr, nullptr, nullptr, &kernel);
    ASSERT_EQ(batched.points.size(), reference.points.size());
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
      EXPECT_NEAR(batched.points[i].accuracy_no_attack,
                  reference.points[i].accuracy_no_attack, kSimdTolerance);
      EXPECT_NEAR(batched.points[i].accuracy_attacked,
                  reference.points[i].accuracy_attacked, kSimdTolerance);
      EXPECT_NEAR(batched.points[i].poison_survived_fraction,
                  reference.points[i].poison_survived_fraction,
                  kSimdTolerance);
    }
  }
}

TEST(BatchedSweepTest, CachedAndParallelRunsAgree) {
  const auto& ctx = sweep_ctx();
  const std::vector<double> grid = {0.0, 0.15, 0.3};
  sim::RetrainKernel kernel;  // scalar tier: runs everywhere
  kernel.batch_width = 3;     // force ragged batches

  const auto serial =
      sim::run_pure_sweep(ctx, grid, 2, nullptr, nullptr, nullptr, &kernel);

  runtime::ThreadPoolExecutor exec(4);
  runtime::PayoffCache cache;
  sim::PureSweepStats stats;
  const auto cold =
      sim::run_pure_sweep(ctx, grid, 2, &exec, &cache, &stats, &kernel);
  EXPECT_EQ(stats.cells_retrained, grid.size() * 2);
  sim::PureSweepStats warm_stats;
  const auto warm =
      sim::run_pure_sweep(ctx, grid, 2, &exec, &cache, &warm_stats, &kernel);
  EXPECT_EQ(warm_stats.cells_retrained, 0u);
  EXPECT_EQ(warm_stats.cache_hits, grid.size() * 2);

  ASSERT_EQ(cold.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    // Same kernel, different executor/cache: identical cell values.
    EXPECT_EQ(cold.points[i].accuracy_attacked,
              serial.points[i].accuracy_attacked);
    EXPECT_EQ(warm.points[i].accuracy_attacked,
              serial.points[i].accuracy_attacked);
    EXPECT_EQ(cold.points[i].accuracy_no_attack,
              serial.points[i].accuracy_no_attack);
  }
}

// ----------------------------------------------------- engine + goldens

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(SimdGoldenTest, SweepGridWithSimdKernelMatchesCommittedGolden) {
  // The committed sweep_grid baseline was produced by the reference
  // kernel; the simd kernel must land within the documented tolerance.
  // Forcing the scalar tier keeps the test meaningful on any host (same
  // batched code path, vector width 1).
  const std::filesystem::path spec_path =
      std::filesystem::path(PG_GOLDEN_DIR) / "sweep_grid.spec";
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::parse(read_file(spec_path));
  spec.kernel = "simd";
  spec.simd = "scalar";
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  std::ostringstream json;
  scenario::write_json(result, json);

  std::filesystem::path json_path = spec_path;
  json_path.replace_extension(".json");
  const scenario::JsonValue baseline =
      scenario::parse_json(read_file(json_path));
  const scenario::JsonValue candidate = scenario::parse_json(json.str());
  scenario::DiffOptions options;
  options.tolerance = kSimdTolerance;
  const scenario::ResultDiff diff =
      scenario::diff_results(baseline, candidate, options);
  std::ostringstream report;
  scenario::write_diff_report(diff, options, report);
  EXPECT_TRUE(diff.clean()) << report.str();

#ifndef PG_OBS_DISABLED
  // The run must have gone through the batched path and said so.
  EXPECT_GT(obs::counter("obs.simd.cells_batched").value(), 0u);
  EXPECT_GT(obs::counter("obs.simd.batches").value(), 0u);
  EXPECT_EQ(obs::gauge("obs.simd.tier").max(),
            static_cast<std::uint64_t>(Tier::kScalar) + 1);
#endif
}

TEST(SimdEngineTest, RejectsBadKernelSpecs) {
  scenario::ScenarioSpec spec;
  spec.kind = "pure_sweep";
  spec.kernel = "vector";  // unknown
  EXPECT_THROW((void)scenario::run_scenario(spec), std::invalid_argument);

  spec.kernel = "reference";
  spec.simd = "avx2";  // tier override without kernel=simd
  EXPECT_THROW((void)scenario::run_scenario(spec), std::invalid_argument);
}

}  // namespace
}  // namespace pg
