// Tests for the parallel execution runtime: executor and parallel_for
// semantics (coverage, exception propagation, reusability), RNG stream
// decorrelation, payoff-evaluator memoization, and the determinism
// contract -- multi-threaded sweeps and payoff grids must be bit-identical
// to their serial counterparts.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/equilibrium.h"
#include "core/game_model.h"
#include "runtime/executor.h"
#include "runtime/payoff_disk_cache.h"
#include "runtime/payoff_evaluator.h"
#include "runtime/rng_stream.h"
#include "sim/experiment.h"
#include "sim/mixed_eval.h"
#include "sim/pure_sweep.h"

namespace pg {
namespace {

// ------------------------------------------------------------- executor.h

std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ExecutorTest, OneThreadStartsNoWorker) {
  const std::size_t before = live_threads();
  runtime::Executor exec(1);
  EXPECT_EQ(live_threads(), before);
  EXPECT_EQ(exec.concurrency(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  exec.parallel_for(3, 10, 2, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8, 9}));
}

TEST(ExecutorTest, ZeroMeansHardwareConcurrency) {
  const runtime::Executor exec(0);
  EXPECT_EQ(exec.concurrency(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(ExecutorTest, PoolCoversEveryIndexExactlyOnce) {
  runtime::Executor exec(4);
  for (std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    std::vector<std::atomic<int>> hits(37);
    exec.parallel_for(0, 37, grain,
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
  }
}

TEST(ExecutorTest, DrainsHeterogeneousChunks) {
  // Slow chunks (every 8th index) next to instant ones: every index must
  // still run exactly once, whichever thread picks each chunk up.
  runtime::Executor exec(4);
  std::vector<std::atomic<int>> hits(64);
  exec.parallel_for(0, 64, 1, [&](std::size_t i) {
    if (i % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorTest, JoinRunsItsOwnChunksWhileEveryWorkerIsPinned) {
  // A second thread's 3-chunk loop holds both workers, and its own chunk
  // 0, until `release`. The main thread's loop must still complete, on
  // the main thread alone. The deadline only turns a hang into a failure.
  runtime::Executor exec(2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::thread pinning([&] {
    exec.parallel_for(0, 3, 1, [&](std::size_t) {
      started.fetch_add(1);
      while (!release.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  });
  while (started.load() < 3) std::this_thread::yield();

  std::vector<std::thread::id> ran_on(4);
  exec.parallel_for(0, 4, 1, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  const bool done_while_pinned =
      !release.load() && std::chrono::steady_clock::now() < deadline;
  release.store(true);
  pinning.join();
  EXPECT_TRUE(done_while_pinned);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ExecutorTest, EmptyRangeIsANoop) {
  runtime::Executor exec(2);
  bool ran = false;
  exec.parallel_for(5, 5, 1, [&](std::size_t) { ran = true; });
  exec.parallel_for(7, 3, 1, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ExecutorTest, ExceptionPropagatesToCaller) {
  runtime::Executor exec(4);
  EXPECT_THROW(
      exec.parallel_for(0, 64, 1,
                        [](std::size_t i) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The executor must stay usable after a failed loop.
  std::atomic<int> count{0};
  exec.parallel_for(0, 16, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(ExecutorTest, SerialExceptionPropagatesToo) {
  runtime::Executor exec(1);
  EXPECT_THROW(exec.parallel_for(0, 4, 1,
                                 [](std::size_t i) {
                                   if (i == 2) throw std::invalid_argument("x");
                                 }),
               std::invalid_argument);
}

TEST(ExecutorTest, CallerChunkExceptionPropagates) {
  // The calling thread runs chunk 0 itself (caller participation); a
  // throw there must propagate exactly like a worker-chunk throw, after
  // the remaining chunks finish.
  runtime::Executor exec(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      exec.parallel_for(0, 64, 16,
                        [&](std::size_t i) {
                          if (i == 0) throw std::runtime_error("chunk 0");
                          ran.fetch_add(1);
                        }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 48) << "sibling chunks must still run to completion";

  std::atomic<int> count{0};
  exec.parallel_for(0, 16, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16) << "executor must stay usable after a failure";
}

TEST(ExecutorTest, NullExecutorResolvesToSerial) {
  EXPECT_EQ(&runtime::executor_or_serial(nullptr),
            &runtime::serial_executor());
  runtime::Executor mine(1);
  EXPECT_EQ(&runtime::executor_or_serial(&mine), &mine);
}

// ----------------------------------------------------------- rng_stream.h

TEST(RngStreamTest, DerivedSeedsAreUniqueAcrossIndices) {
  const runtime::RngStreamFactory factory(42);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seeds.insert(factory.derive_seed(i));
  }
  EXPECT_EQ(seeds.size(), 4096u);
}

TEST(RngStreamTest, TwoDimensionalSeedsDoNotCollideWithFlatOnes) {
  const runtime::RngStreamFactory factory(7);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) {
    seeds.insert(factory.derive_seed(i));
    for (std::uint64_t j = 0; j < 64; ++j) {
      seeds.insert(factory.derive_seed(i, j));
    }
  }
  EXPECT_EQ(seeds.size(), 64u + 64u * 64u);
}

TEST(RngStreamTest, StreamsAreDeterministicInIndex) {
  const runtime::RngStreamFactory factory(123);
  util::Rng a = factory.stream(5);
  util::Rng b = factory.stream(5);
  for (int k = 0; k < 32; ++k) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngStreamTest, DecorrelationSmoke) {
  // Adjacent indices (the worst case for weak mixing) must produce
  // streams that look independent: each stream's mean is near 1/2 and the
  // empirical correlation of paired draws is small.
  const runtime::RngStreamFactory factory(99);
  constexpr int kDraws = 4096;
  util::Rng a = factory.stream(0);
  util::Rng b = factory.stream(1);
  double mean_a = 0.0, mean_b = 0.0, cross = 0.0;
  for (int k = 0; k < kDraws; ++k) {
    const double x = a.uniform();
    const double y = b.uniform();
    mean_a += x;
    mean_b += y;
    cross += (x - 0.5) * (y - 0.5);
  }
  mean_a /= kDraws;
  mean_b /= kDraws;
  // Correlation of n uniform pairs has sd ~ 1/sqrt(n) ~ 0.016; 5 sigma.
  const double corr = cross / kDraws / (1.0 / 12.0);
  EXPECT_NEAR(mean_a, 0.5, 0.03);
  EXPECT_NEAR(mean_b, 0.5, 0.03);
  EXPECT_LT(std::abs(corr), 0.08);
}

// ----------------------------------------------------- payoff_evaluator.h

TEST(ContentKeyTest, OrderAndValueSensitive) {
  const std::uint64_t a =
      runtime::ContentKey().mix(std::uint64_t{1}).mix(2.0).digest();
  const std::uint64_t b =
      runtime::ContentKey().mix(std::uint64_t{2}).mix(1.0).digest();
  const std::uint64_t c =
      runtime::ContentKey().mix(std::uint64_t{1}).mix(2.0).digest();
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
  // Near-equal doubles (adjacent grid fractions) get unrelated keys.
  EXPECT_NE(runtime::ContentKey().mix(0.05).digest(),
            runtime::ContentKey().mix(0.05 + 1e-12).digest());
}

TEST(PayoffEvaluatorTest, CacheSkipsRecomputation) {
  runtime::Executor exec(1);
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(exec, &cache);

  std::atomic<int> computed{0};
  const auto cell = [&](std::size_t i, std::span<double> value) {
    computed.fetch_add(1);
    value[0] = static_cast<double>(i) * 2.0;
  };
  const auto key = [](std::size_t i, std::span<std::uint64_t> keys) {
    keys[0] = runtime::ContentKey().mix(static_cast<std::uint64_t>(i)).digest();
  };

  const auto first = evaluator.evaluate_cells(10, 1, key, cell);
  EXPECT_EQ(computed.load(), 10);
  EXPECT_EQ(cache.size(), 10u);

  const auto second = evaluator.evaluate_cells(10, 1, key, cell);
  EXPECT_EQ(computed.load(), 10) << "all cells must come from the cache";
  EXPECT_EQ(second, first);
  EXPECT_EQ(evaluator.cache_hits(), 10u);
  EXPECT_EQ(evaluator.cells_computed(), 10u);
}

TEST(PayoffEvaluatorTest, WideCellsComeBackCellMajorAndCountOnce) {
  runtime::Executor exec(4);
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(exec, &cache);
  const auto key = [](std::size_t i, std::span<std::uint64_t> keys) {
    for (std::size_t k = 0; k < keys.size(); ++k) keys[k] = 10 * i + k;
  };
  const auto cell = [](std::size_t i, std::span<double> values) {
    for (std::size_t k = 0; k < values.size(); ++k) {
      values[k] = static_cast<double>(10 * i + k);
    }
  };
  const std::vector<double> expected{0, 1, 2, 10, 11, 12, 20, 21, 22,
                                     30, 31, 32, 40, 41, 42};
  EXPECT_EQ(evaluator.evaluate_cells(5, 3, key, cell), expected);
  EXPECT_EQ(evaluator.cells_computed(), 5u);
  EXPECT_EQ(cache.size(), 15u);

  // Warm: each three-value cell is one hit, not three.
  EXPECT_EQ(evaluator.evaluate_cells(5, 3, key, cell), expected);
  EXPECT_EQ(evaluator.cache_hits(), 5u);
  EXPECT_EQ(evaluator.cells_computed(), 5u);

  // Without a cache every cell computes, and counts as computed.
  const runtime::PayoffEvaluator uncached(exec);
  EXPECT_EQ(uncached.evaluate_cells(5, 3, key, cell), expected);
  EXPECT_EQ(uncached.cells_computed(), 5u);
  EXPECT_EQ(uncached.cache_hits(), 0u);
}

TEST(PayoffEvaluatorTest, AbandonOnThrowLeavesCacheReusable) {
  runtime::Executor exec(1);
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(exec, &cache);
  const auto key = [](std::size_t i, std::span<std::uint64_t> keys) {
    keys[0] = 0xA000 + i;
  };
  EXPECT_THROW((void)evaluator.evaluate_cells(
                   3, 1, key,
                   [](std::size_t i, std::span<double> value) {
                     if (i == 1) throw std::runtime_error("boom");
                     value[0] = 2.0;
                   }),
               std::runtime_error);
  // Cell 0 was published; cell 1's claim was abandoned, so a second
  // attempt owns it again instead of waiting on a value that never comes.
  const auto ok = evaluator.evaluate_cells(
      3, 1, key, [](std::size_t, std::span<double> value) { value[0] = 1.0; });
  EXPECT_EQ(ok, (std::vector<double>{2.0, 1.0, 1.0}));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PayoffEvaluatorTest, DiscretizeMatchesSerialReference) {
  const core::PoisoningGame game(
      core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4), 100);
  const game::MatrixGame serial = game.discretize(33, 17);

  runtime::Executor exec(8);
  const game::MatrixGame parallel = game.discretize(33, 17, &exec);

  ASSERT_EQ(parallel.num_rows(), serial.num_rows());
  ASSERT_EQ(parallel.num_cols(), serial.num_cols());
  for (std::size_t i = 0; i < serial.num_rows(); ++i) {
    for (std::size_t j = 0; j < serial.num_cols(); ++j) {
      EXPECT_EQ(parallel.payoff_at(i, j), serial.payoff_at(i, j))
          << "cell (" << i << ", " << j << ")";
    }
  }
}

// ------------------------------------------------------------- memoize

using Entries = std::vector<std::pair<std::uint64_t, double>>;

TEST(MemoizeTest, OwnerStoresSiblingsAndASecondCallComputesNothing) {
  runtime::PayoffCache cache;
  const std::array<std::uint64_t, 3> keys{11, 12, 13};
  int runs = 0;
  std::array<double, 3> first{};
  EXPECT_TRUE(runtime::memoize(&cache, keys, first, [&] {
    ++runs;
    first = {0.1, 0.2, 0.3};
  }));
  EXPECT_EQ(cache.snapshot(), (Entries{{11, 0.1}, {12, 0.2}, {13, 0.3}}));

  std::array<double, 3> second{};
  EXPECT_FALSE(runtime::memoize(&cache, keys, second, [&] { ++runs; }));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(second, first);
}

TEST(MemoizeTest, AMissingSiblingIsComputedAndOnlyItIsStored) {
  // A shard written by an older version: keys[0] and keys[1] only.
  runtime::PayoffCache cache;
  cache.preload({{11, 0.1}, {12, 0.2}});
  const std::array<std::uint64_t, 3> keys{11, 12, 13};
  int runs = 0;
  std::array<double, 3> values{};
  EXPECT_TRUE(runtime::memoize(&cache, keys, values, [&] {
    ++runs;
    values = {0.1, 0.2, 0.3};
  }));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(values, (std::array<double, 3>{0.1, 0.2, 0.3}));
  EXPECT_EQ(cache.snapshot(), (Entries{{11, 0.1}, {12, 0.2}, {13, 0.3}}));
  // The claim and keys[1] hit; keys[2] is the one miss.
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MemoizeTest, NullCacheComputesEveryCall) {
  const std::array<std::uint64_t, 2> keys{21, 22};
  int runs = 0;
  std::array<double, 2> values{};
  for (int call = 0; call < 3; ++call) {
    EXPECT_TRUE(runtime::memoize(nullptr, keys, values, [&] {
      ++runs;
      values = {1.0, 2.0};
    }));
  }
  EXPECT_EQ(runs, 3);
}

TEST(MemoizeTest, AThrowingOwnerHandsItsClaimToAWaiter) {
  runtime::PayoffCache cache;
  const std::array<std::uint64_t, 2> keys{31, 32};
  std::atomic<bool> owner_computing{false};
  std::atomic<bool> waiter_started{false};

  const auto throw_after_waiter_starts = [&] {
    owner_computing = true;
    while (!waiter_started) std::this_thread::yield();
    // Let the waiter block on the claim before it is released.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    throw std::runtime_error("boom");
  };
  std::thread owner([&] {
    std::array<double, 2> values{};
    EXPECT_THROW(
        (void)runtime::memoize(&cache, keys, values, throw_after_waiter_starts),
        std::runtime_error);
  });
  while (!owner_computing) std::this_thread::yield();

  int waiter_runs = 0;
  std::array<double, 2> waited{};
  std::thread waiter([&] {
    waiter_started = true;
    EXPECT_TRUE(runtime::memoize(&cache, keys, waited, [&] {
      ++waiter_runs;
      waited = {3.0, 4.0};
    }));
  });
  owner.join();
  waiter.join();
  EXPECT_EQ(waiter_runs, 1);

  std::array<double, 2> third{};
  EXPECT_FALSE(runtime::memoize(&cache, keys, third, [] {
    ADD_FAILURE() << "a published cell was recomputed";
  }));
  EXPECT_EQ(third, (std::array<double, 2>{3.0, 4.0}));
}

// ------------------------------------------------- determinism contract

const sim::ExperimentContext& small_ctx() {
  static const sim::ExperimentContext ctx = [] {
    sim::ExperimentConfig cfg = sim::fast_config(42);
    cfg.corpus.n_instances = 300;
    cfg.svm.epochs = 25;
    return sim::prepare_experiment(cfg);
  }();
  return ctx;
}

TEST(RuntimeDeterminismTest, PureSweepBitIdenticalAcrossThreadCounts) {
  const auto& ctx = small_ctx();
  const std::vector<double> grid = {0.0, 0.1, 0.25, 0.4};

  const auto serial = sim::run_pure_sweep(ctx, grid, 2);
  runtime::Executor one(1);
  const auto threaded1 =
      sim::run_pure_sweep(ctx, grid, 2, runtime::PayoffEvaluator(one));
  runtime::Executor eight(8);
  const auto threaded8 =
      sim::run_pure_sweep(ctx, grid, 2, runtime::PayoffEvaluator(eight));

  ASSERT_EQ(serial.points.size(), grid.size());
  for (const auto* run : {&threaded1, &threaded8}) {
    ASSERT_EQ(run->points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      // EXPECT_EQ, not NEAR: the contract is bit-identity.
      EXPECT_EQ(run->points[i].accuracy_no_attack,
                serial.points[i].accuracy_no_attack);
      EXPECT_EQ(run->points[i].accuracy_attacked,
                serial.points[i].accuracy_attacked);
      EXPECT_EQ(run->points[i].poison_survived_fraction,
                serial.points[i].poison_survived_fraction);
    }
  }
}

TEST(RuntimeDeterminismTest, MixedEvalBitIdenticalAcrossThreadCountsAndCache) {
  const auto& ctx = small_ctx();
  const defense::MixedDefenseStrategy strategy({0.1, 0.25, 0.4},
                                               {0.5, 0.3, 0.2});
  sim::MixedEvalConfig ecfg;
  ecfg.draws = 2;

  const auto serial = sim::evaluate_mixed_defense(ctx, strategy, ecfg);

  runtime::Executor eight(8);
  const auto threaded = sim::evaluate_mixed_defense(
      ctx, strategy, ecfg, runtime::PayoffEvaluator(eight));

  // Cached evaluator, evaluated twice: the second pass runs entirely from
  // the cache and must reproduce the first bit-for-bit.
  runtime::PayoffCache cache;
  const runtime::PayoffEvaluator evaluator(eight, &cache);
  const auto cached1 =
      sim::evaluate_mixed_defense(ctx, strategy, ecfg, evaluator);
  const auto cached2 =
      sim::evaluate_mixed_defense(ctx, strategy, ecfg, evaluator);
  EXPECT_GT(evaluator.cache_hits(), 0u);

  for (const auto* run : {&threaded, &cached1, &cached2}) {
    EXPECT_EQ(run->adversarial_accuracy, serial.adversarial_accuracy);
    EXPECT_EQ(run->no_attack_accuracy, serial.no_attack_accuracy);
    ASSERT_EQ(run->accuracy_by_placement.size(),
              serial.accuracy_by_placement.size());
    for (std::size_t i = 0; i < serial.accuracy_by_placement.size(); ++i) {
      EXPECT_EQ(run->accuracy_by_placement[i],
                serial.accuracy_by_placement[i]);
    }
  }
}

// ------------------------------------------------- payoff cache counters

TEST(PayoffCacheTest, CountsHitsAndMisses) {
  runtime::PayoffCache cache;
  double value = 0.0;
  EXPECT_FALSE(cache.lookup(1, value));
  cache.store(1, 0.5);
  EXPECT_TRUE(cache.lookup(1, value));
  EXPECT_EQ(value, 0.5);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PayoffCacheTest, SnapshotIsSortedAndPreloadDoesNotCount) {
  runtime::PayoffCache cache;
  cache.store(9, 0.9);
  cache.store(3, 0.3);
  cache.preload({{5, 0.5}, {3, 777.0}});  // existing key 3 keeps its value
  const auto entries = cache.snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (std::pair<std::uint64_t, double>{3, 0.3}));
  EXPECT_EQ(entries[1], (std::pair<std::uint64_t, double>{5, 0.5}));
  EXPECT_EQ(entries[2], (std::pair<std::uint64_t, double>{9, 0.9}));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

// ------------------------------------------------- payoff_disk_cache.h

TEST(DiskPayoffCacheTest, EncodeDecodeRoundTrip) {
  const std::vector<std::pair<std::uint64_t, double>> entries = {
      {1, 0.25}, {0xFFFFFFFFFFFFFFFFULL, -1e300}, {42, 0.0}};
  const std::string bytes = runtime::DiskPayoffCache::encode(entries);
  std::vector<std::pair<std::uint64_t, double>> decoded;
  ASSERT_TRUE(runtime::DiskPayoffCache::decode(bytes, decoded));
  EXPECT_EQ(decoded, entries);
}

TEST(DiskPayoffCacheTest, DecodeRejectsCorruption) {
  const std::string bytes =
      runtime::DiskPayoffCache::encode({{1, 0.25}, {2, 0.5}});
  std::vector<std::pair<std::uint64_t, double>> decoded;
  EXPECT_FALSE(runtime::DiskPayoffCache::decode("", decoded));
  EXPECT_FALSE(runtime::DiskPayoffCache::decode("garbage", decoded));
  // Truncated body.
  EXPECT_FALSE(
      runtime::DiskPayoffCache::decode(bytes.substr(0, bytes.size() - 8),
                                       decoded));
  // One flipped payload byte breaks the checksum.
  std::string flipped = bytes;
  flipped[20] = static_cast<char>(flipped[20] ^ 0x01);
  EXPECT_FALSE(runtime::DiskPayoffCache::decode(flipped, decoded));
  EXPECT_TRUE(decoded.empty());
  // A crafted count near 2^61 would overflow the size arithmetic; the
  // decoder must reject it instead of over-reserving or reading past
  // the buffer.
  std::string huge_count = runtime::DiskPayoffCache::encode({});
  for (int b = 0; b < 8; ++b) huge_count[8 + b] = '\xFF';
  EXPECT_FALSE(runtime::DiskPayoffCache::decode(huge_count, decoded));
}

TEST(DiskPayoffCacheTest, DisabledCacheIsANoOp) {
  runtime::DiskPayoffCache disk("");
  EXPECT_FALSE(disk.enabled());
  runtime::PayoffCache cache;
  cache.store(1, 1.0);
  EXPECT_EQ(disk.load(1, cache), 0u);
  EXPECT_EQ(disk.save(1, cache), 0u);
}

TEST(DiskPayoffCacheTest, SaveLoadRoundTripsAcrossCaches) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pg_disk_cache_test")
          .string();
  std::filesystem::remove_all(dir);
  {
    runtime::DiskPayoffCache disk(dir);
    runtime::PayoffCache cache;
    cache.store(10, 0.125);
    cache.store(11, 0.625);
    EXPECT_EQ(disk.save(77, cache), 2u);

    runtime::PayoffCache reloaded;
    EXPECT_EQ(disk.load(77, reloaded), 2u);
    double value = 0.0;
    EXPECT_TRUE(reloaded.lookup(10, value));
    EXPECT_EQ(value, 0.125);
    // Different shard: untouched.
    runtime::PayoffCache other;
    EXPECT_EQ(disk.load(78, other), 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskPayoffCacheTest, UnwritableDirDegradesToColdRun) {
  // The cache dir path sits UNDER a regular file, so create_directories
  // and every open fail no matter the uid. Nothing may throw: save/load
  // report zero traffic and the caller just runs cold.
  const std::string base =
      (std::filesystem::temp_directory_path() / "pg_disk_cache_unwritable")
          .string();
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  { std::ofstream blocker(base + "/blocker"); blocker << "x"; }

  runtime::DiskPayoffCache disk(base + "/blocker/cache");
  EXPECT_TRUE(disk.enabled());  // configured, just not writable
  runtime::PayoffCache cache;
  cache.store(1, 0.5);
  EXPECT_NO_THROW({
    EXPECT_EQ(disk.save(42, cache), 0u);
    EXPECT_EQ(disk.load(42, cache), 0u);
    EXPECT_EQ(disk.enforce_max_bytes(), 0u);
  });
  std::filesystem::remove_all(base);
}

TEST(DiskPayoffCacheTest, EnforceMaxBytesEvictsOldestShards) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pg_disk_cache_evict")
          .string();
  std::filesystem::remove_all(dir);
  {
    runtime::PayoffCache cache;
    for (std::uint64_t k = 0; k < 8; ++k) cache.store(k, 0.5);
    // Three shards of identical size, with explicit mtimes so the
    // oldest-first order is unambiguous even on coarse filesystems.
    runtime::DiskPayoffCache writer(dir);
    ASSERT_EQ(writer.save(1, cache), 8u);
    ASSERT_EQ(writer.save(2, cache), 8u);
    ASSERT_EQ(writer.save(3, cache), 8u);
    const auto now = std::filesystem::file_time_type::clock::now();
    using std::chrono::hours;
    std::filesystem::last_write_time(writer.shard_path(1), now - hours(3));
    std::filesystem::last_write_time(writer.shard_path(2), now - hours(2));
    std::filesystem::last_write_time(writer.shard_path(3), now - hours(1));

    const auto shard_bytes = std::filesystem::file_size(writer.shard_path(1));

    // Uncapped: nothing happens.
    EXPECT_EQ(writer.enforce_max_bytes(), 0u);

    // Cap fits exactly two shards: the oldest (shard 1) goes.
    runtime::DiskPayoffCache capped(dir, 2 * shard_bytes);
    EXPECT_EQ(capped.enforce_max_bytes(), 1u);
    EXPECT_FALSE(std::filesystem::exists(capped.shard_path(1)));
    EXPECT_TRUE(std::filesystem::exists(capped.shard_path(2)));
    EXPECT_TRUE(std::filesystem::exists(capped.shard_path(3)));
    // Already within the cap: idempotent.
    EXPECT_EQ(capped.enforce_max_bytes(), 0u);

    // Tighter cap than any single shard: everything must go -- the cap
    // is a hard bound, not a suggestion.
    runtime::DiskPayoffCache tiny(dir, shard_bytes / 2);
    EXPECT_EQ(tiny.enforce_max_bytes(), 2u);
    EXPECT_FALSE(std::filesystem::exists(tiny.shard_path(2)));
    EXPECT_FALSE(std::filesystem::exists(tiny.shard_path(3)));

    // Foreign files in the directory are never candidates.
    { std::ofstream foreign(dir + "/notes.txt"); foreign << "keep me"; }
    ASSERT_EQ(writer.save(4, cache), 8u);
    runtime::DiskPayoffCache zero(dir, 1);
    EXPECT_EQ(zero.enforce_max_bytes(), 1u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskPayoffCacheTest, EnforceMaxBytesRemovesDeadWritersTempFiles) {
  // A save killed between write and rename leaves
  // payoff-<shard>.pgpc.tmp.<pid>. Every pass, capped or not, removes it
  // once its pid is gone (a reaped child's), even with nothing to evict,
  // and keeps a live writer's (this process's) and one whose pid does
  // not parse.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pg_disk_cache_orphans")
          .string();
  std::filesystem::remove_all(dir);
  {
    runtime::PayoffCache cache;
    cache.store(1, 0.5);
    runtime::DiskPayoffCache writer(dir);
    ASSERT_EQ(writer.save(7, cache), 1u);

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) ::_exit(0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);

    const std::string shard = writer.shard_path(7);
    const std::string dead = shard + ".tmp." + std::to_string(child);
    const std::string live = shard + ".tmp." + std::to_string(::getpid());
    const std::string unparsable = shard + ".tmp.12x";
    for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{1} << 20}) {
      for (const std::string& path : {dead, live, unparsable}) {
        std::ofstream(path) << "partial";
      }
      runtime::DiskPayoffCache disk(dir, cap);
      EXPECT_EQ(disk.enforce_max_bytes(), 0u);
      EXPECT_FALSE(std::filesystem::exists(dead)) << "cap " << cap;
      EXPECT_TRUE(std::filesystem::exists(live));
      EXPECT_TRUE(std::filesystem::exists(unparsable));
      EXPECT_TRUE(std::filesystem::exists(shard));
      runtime::PayoffCache loaded;
      EXPECT_EQ(disk.load(7, loaded), 1u);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(DiskPayoffCacheTest, ConcurrentEvictionCountsOnlyOwnRemovals) {
  // Two cache instances (standing in for two worker processes sharing a
  // --cache-dir) race enforce_max_bytes over one directory. Each removal
  // must be counted by exactly one racer -- a shard that vanished under a
  // racer's feet is the OTHER side's eviction, not an error -- so the two
  // counts sum to exactly the number of files that disappeared, and the
  // "cannot evict" warning never fires for the vanished-shard case.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pg_disk_cache_race")
          .string();
  std::filesystem::remove_all(dir);
  runtime::PayoffCache cache;
  for (std::uint64_t k = 0; k < 8; ++k) cache.store(k, 0.25);
  runtime::DiskPayoffCache writer(dir);
  constexpr std::uint64_t kShards = 40;
  for (std::uint64_t s = 1; s <= kShards; ++s) {
    ASSERT_EQ(writer.save(s, cache), 8u);
  }
  const auto shard_bytes = std::filesystem::file_size(writer.shard_path(1));

  const auto live_shards = [&dir]() {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".pgpc") ++n;
    }
    return n;
  };
  ASSERT_EQ(live_shards(), kShards);

  // Capture stderr: the race must stay silent apart from the final
  // "evicted N oldest shard(s)" summary each racer prints.
  std::ostringstream captured;
  std::streambuf* old_cerr = std::cerr.rdbuf(captured.rdbuf());

  // Cap fits two shards: 38 must go, split between the racers.
  runtime::DiskPayoffCache a(dir, 2 * shard_bytes);
  runtime::DiskPayoffCache b(dir, 2 * shard_bytes);
  std::size_t evicted_a = 0;
  std::size_t evicted_b = 0;
  std::thread ta([&] { evicted_a = a.enforce_max_bytes(); });
  std::thread tb([&] { evicted_b = b.enforce_max_bytes(); });
  ta.join();
  tb.join();
  std::cerr.rdbuf(old_cerr);

  const std::size_t after = live_shards();
  EXPECT_LE(after, 2u);
  EXPECT_EQ(evicted_a + evicted_b, kShards - after);
  EXPECT_EQ(captured.str().find("cannot evict"), std::string::npos)
      << captured.str();
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------- nested parallel_for
// The depth-tagged nested scheduler: outer chunks queue inner chunks on
// the SAME executor; joins run queued chunks instead of sleeping, so
// saturation can slow things down but never deadlock, and determinism
// survives any interleaving.

TEST(NestedParallelTest, NestedLoopsCoverEveryIndexUnderExhaustion) {
  // 2 workers, 8 outer tasks each fanning out 8 inner chunks: far more
  // live fork-joins than threads. Every (outer, inner) pair must run
  // exactly once.
  runtime::Executor exec(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  exec.parallel_for(0, kOuter, 1, [&](std::size_t o) {
    exec.parallel_for(0, kInner, 1, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t c = 0; c < hits.size(); ++c) {
    EXPECT_EQ(hits[c].load(), 1) << "cell " << c;
  }
}

TEST(NestedParallelTest, ThreeLevelNestingTerminates) {
  runtime::Executor exec(4);
  std::atomic<int> leaves{0};
  exec.parallel_for(0, 4, 1, [&](std::size_t) {
    exec.parallel_for(0, 4, 1, [&](std::size_t) {
      exec.parallel_for(0, 4, 1, [&](std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(NestedParallelTest, InnerExceptionPropagatesThroughOuterJoin) {
  runtime::Executor exec(4);
  const auto outer = [&](std::size_t o) {
    exec.parallel_for(0, 4, 1, [&](std::size_t i) {
      if (o == 2 && i == 3) throw std::runtime_error("inner");
    });
  };
  EXPECT_THROW(exec.parallel_for(0, 4, 1, outer), std::runtime_error);
  // The executor stays usable after a failed nested loop.
  std::atomic<int> count{0};
  exec.parallel_for(0, 8, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(NestedParallelTest, NestedGridBitIdenticalAcrossThreadCounts) {
  // An outer x inner grid where every cell derives its value from its own
  // RNG stream: the nested schedule (1, 2, 4, hw threads) must reproduce
  // the serial result bit for bit.
  const auto compute = [](runtime::Executor& exec) {
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 16;
    const runtime::RngStreamFactory streams(1234);
    std::vector<double> cells(kOuter * kInner, 0.0);
    exec.parallel_for(0, kOuter, 1, [&](std::size_t o) {
      exec.parallel_for(0, kInner, 1, [&](std::size_t i) {
        util::Rng rng = streams.stream(o, i);
        double acc = 0.0;
        for (int k = 0; k < 50; ++k) acc += rng.normal();
        cells[o * kInner + i] = acc;
      });
    });
    return cells;
  };
  runtime::Executor serial(1);
  const auto expected = compute(serial);
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    runtime::Executor exec(threads);
    EXPECT_EQ(compute(exec), expected) << threads << " threads";
  }
}

}  // namespace
}  // namespace pg
