// Tests for the scenario engine: spec parse/print round-trips, --set
// override precedence, the registry catalog, engine output equality with
// the direct library path (what the legacy benches computed), thread
// invariance, and disk-cache warm-run behavior (zero retrains, identical
// payoffs, graceful corruption fallback).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/executor.h"
#include "scenario/cache_bundle.h"
#include "scenario/cli.h"
#include "scenario/diff.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "scenario/result.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "sim/experiment.h"
#include "sim/pure_sweep.h"

namespace pg::scenario {
namespace {

// ------------------------------------------------------------------ spec

TEST(SpecTest, RoundTripsThroughText) {
  ScenarioSpec spec;
  spec.name = "custom-sweep";
  spec.kind = "pure_sweep";
  spec.description = "a description, with punctuation";
  spec.seed = 1234567890123ULL;
  spec.instances = 321;
  spec.sweep_max = 0.37;
  spec.train_fraction = 0.7;  // must survive exactly
  spec.real_corpus = false;
  spec.lp_pricing = "dantzig";

  const ScenarioSpec parsed = ScenarioSpec::parse(spec.to_text());
  EXPECT_EQ(parsed.to_text(), spec.to_text());
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.sweep_max, spec.sweep_max);
  EXPECT_EQ(parsed.train_fraction, 0.7);
  EXPECT_FALSE(parsed.real_corpus);
}

TEST(SpecTest, ParsesJsonishSpelling) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "{\n"
      "  \"kind\": \"pure_sweep\",\n"
      "  \"instances\": 700,\n"
      "  # comment line\n"
      "  epochs = 40\n"
      "}\n");
  EXPECT_EQ(spec.kind, "pure_sweep");
  EXPECT_EQ(spec.instances, 700u);
  EXPECT_EQ(spec.epochs, 40u);
  EXPECT_EQ(spec.seed, 42u);  // untouched default
}

TEST(SpecTest, QuotedValuesMayContainSeparatorCharacters) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "\"description\": \"sweep p = 0..0.4, ratio 1:2\",\n"
      "name = a=b\n");
  EXPECT_EQ(spec.description, "sweep p = 0..0.4, ratio 1:2");
  EXPECT_EQ(spec.name, "a=b");  // unquoted: split at the FIRST separator
}

TEST(SpecTest, RejectsUnknownKeysAndMalformedValues) {
  ScenarioSpec spec;
  EXPECT_THROW(spec.set("no_such_knob", "1"), std::invalid_argument);
  EXPECT_THROW(spec.set("instances", "12abc"), std::invalid_argument);
  EXPECT_THROW(spec.set("instances", "-3"), std::invalid_argument);
  EXPECT_THROW(spec.set("sweep_max", "zero point four"),
               std::invalid_argument);
  EXPECT_THROW(spec.set("use_cache", "maybe"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("a line without separator\n"),
               std::invalid_argument);
  EXPECT_THROW((void)spec.get("no_such_knob"), std::invalid_argument);
}

TEST(SpecTest, KeysCoverEveryFieldBothWays) {
  // get/set agree for every advertised key: set(key, get(key)) is a
  // no-op, so the table has no write-only or read-only entries.
  ScenarioSpec spec;
  spec.kind = "micro";
  for (const std::string& key : ScenarioSpec::keys()) {
    ScenarioSpec copy = spec;
    copy.set(key, spec.get(key));
    EXPECT_EQ(copy.to_text(), spec.to_text()) << "key: " << key;
  }
}

// -------------------------------------------------------------- registry

TEST(RegistryTest, ListsEveryLegacyScenario) {
  const auto& registry = ScenarioRegistry::instance();
  EXPECT_GE(registry.entries().size(), 8u);
  for (const char* name :
       {"fig1", "table1", "prop1", "nsweep", "transfer", "solver_ablation",
        "defense_ablation", "micro"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const ScenarioSpec spec = registry.make(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.kind.empty());
    EXPECT_FALSE(spec.description.empty());
  }
  EXPECT_THROW((void)registry.make("nope"), std::invalid_argument);
}

TEST(RegistryTest, HonorsBenchEnvKnobsLikeTheLegacyBenches) {
  // prop1 capped instances at min(PG_BENCH_INSTANCES, 1500).
  ASSERT_EQ(setenv("PG_BENCH_INSTANCES", "900", 1), 0);
  EXPECT_EQ(ScenarioRegistry::instance().make("prop1").instances, 900u);
  ASSERT_EQ(setenv("PG_BENCH_INSTANCES", "4000", 1), 0);
  EXPECT_EQ(ScenarioRegistry::instance().make("prop1").instances, 1500u);
  EXPECT_EQ(ScenarioRegistry::instance().make("fig1").instances, 4000u);
  ASSERT_EQ(unsetenv("PG_BENCH_INSTANCES"), 0);
}

// ------------------------------------------------------------------- cli

TEST(CliTest, ParsesFlagsAndDesugarsShorthands) {
  const CliOptions options = parse_cli(
      {"--scenario", "fig1", "--set", "instances=100", "--threads", "2",
       "--no-cache", "--cache-dir", "/tmp/x", "--out", "json", "--out-file",
       "r.json"});
  EXPECT_EQ(options.scenario, "fig1");
  EXPECT_EQ(options.out_format, "json");
  EXPECT_EQ(options.out_file, "r.json");
  ASSERT_EQ(options.overrides.size(), 4u);
  EXPECT_EQ(options.overrides[0],
            (std::pair<std::string, std::string>{"instances", "100"}));
  EXPECT_EQ(options.overrides[1].first, "threads");
  EXPECT_EQ(options.overrides[2].first, "use_cache");
  EXPECT_EQ(options.overrides[3].first, "cache_dir");
}

TEST(CliTest, RejectsBadInput) {
  EXPECT_THROW(parse_cli({"--wat"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--set", "no-equals"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--set"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--scenario", "a", "--spec", "b"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--out", "xml"}), std::invalid_argument);
}

TEST(CliTest, ListShowsTheCatalog) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli(parse_cli({"--list"}), out, err), 0);
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    EXPECT_NE(out.str().find(name), std::string::npos) << name;
  }
}

TEST(CliTest, SetOverridesSpecFileAndLastSetWins) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pg_spec_test.txt").string();
  {
    std::ofstream file(path);
    file << "kind = pure_sweep\ninstances = 500\nepochs = 30\n";
  }
  std::ostringstream out;
  std::ostringstream err;
  const int rc = run_cli(
      parse_cli({"--spec", path, "--set", "instances=200", "--set",
                 "instances=250", "--print-spec"}),
      out, err);
  EXPECT_EQ(rc, 0) << err.str();
  const ScenarioSpec resolved = ScenarioSpec::parse(out.str());
  EXPECT_EQ(resolved.instances, 250u);  // --set beats file, last --set wins
  EXPECT_EQ(resolved.epochs, 30u);      // file beats default
  std::remove(path.c_str());
}

TEST(CliTest, ErrorsReportToStderrWithNonzeroExit) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli(parse_cli({"--scenario", "nope"}), out, err), 1);
  EXPECT_NE(err.str().find("unknown scenario"), std::string::npos);
}

// ---------------------------------------------------------------- engine

/// Tiny but structurally complete spec: synthetic corpus, short SVM.
ScenarioSpec tiny_spec(const std::string& kind) {
  ScenarioSpec spec;
  spec.name = "tiny_" + kind;
  spec.kind = kind;
  spec.seed = 7;
  spec.instances = 300;
  spec.epochs = 20;
  spec.real_corpus = false;
  spec.sweep_steps = 3;
  spec.replications = 1;
  spec.draws = 1;
  spec.support_min = 2;
  spec.support_max = 2;
  spec.threads = 1;
  return spec;
}

bool timing_column(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with("_ms") || ends_with("_seconds");
}

/// All non-timing cells of every table plus all non-timing metrics, in a
/// canonical render, for bitwise comparisons across runs/thread counts.
std::vector<std::string> comparable_cells(const ScenarioResult& result) {
  std::vector<std::string> cells;
  for (const auto& [key, value] : result.metrics) {
    if (!timing_column(key)) cells.push_back(key + "=" + value.render());
  }
  for (const ResultTable& table : result.tables) {
    // In merged sweep tables, per-point metrics appear as rows keyed by
    // a "metric" column; a timing metric is then wall-clock data in row
    // form and is skipped like a timing column.
    std::size_t metric_column = table.columns.size();
    for (std::size_t c = 0; c < table.columns.size(); ++c) {
      if (table.columns[c] == "metric") metric_column = c;
    }
    for (const auto& row : table.rows) {
      if (metric_column < row.size() &&
          !row[metric_column].is_number() &&
          timing_column(row[metric_column].text())) {
        continue;
      }
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (timing_column(table.columns[c])) continue;
        cells.push_back(table.name + "." + table.columns[c] + "=" +
                        row[c].render());
      }
    }
  }
  return cells;
}

TEST(EngineTest, RejectsUnknownKind) {
  ScenarioSpec spec = tiny_spec("no_such_kind");
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(EngineTest, PureSweepMatchesDirectLibraryPath) {
  // The engine must reproduce EXACTLY what the legacy bench computed by
  // calling the sim/ entry points directly with the same knobs.
  const ScenarioSpec spec = tiny_spec("pure_sweep");
  const ScenarioResult result = run_scenario(spec);

  sim::ExperimentConfig cfg;
  cfg.seed = spec.seed;
  cfg.corpus.n_instances = spec.instances;
  cfg.svm.epochs = spec.epochs;
  cfg.try_real_corpus = false;
  const sim::ExperimentContext ctx = sim::prepare_experiment(cfg);
  const auto sweep = sim::run_pure_sweep(
      ctx, sim::sweep_grid(spec.sweep_max, spec.sweep_steps),
      spec.replications, nullptr);

  ASSERT_EQ(result.tables[0].name, "pure_sweep");
  ASSERT_EQ(result.tables[0].rows.size(), sweep.points.size());
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const auto& row = result.tables[0].rows[i];
    EXPECT_EQ(row[0].number(), sweep.points[i].removal_fraction);
    EXPECT_EQ(row[1].number(), sweep.points[i].accuracy_no_attack);
    EXPECT_EQ(row[2].number(), sweep.points[i].accuracy_attacked);
    EXPECT_EQ(row[3].number(), sweep.points[i].poison_survived_fraction);
  }
}

TEST(EngineTest, OutputBitIdenticalAcrossThreadCounts) {
  ScenarioSpec spec = tiny_spec("mixed_table");
  spec.threads = 1;
  const auto serial = comparable_cells(run_scenario(spec));
  spec.threads = 3;
  const auto threaded = comparable_cells(run_scenario(spec));
  EXPECT_EQ(serial, threaded);
}

TEST(EngineTest, CachingDoesNotChangeResults) {
  ScenarioSpec spec = tiny_spec("mixed_table");
  spec.use_cache = false;
  const auto uncached = comparable_cells(run_scenario(spec));
  spec.use_cache = true;
  const auto cached = comparable_cells(run_scenario(spec));
  EXPECT_EQ(uncached, cached);
}

TEST(EngineTest, SecondRunOnOneShardStoreServesTheBaseline) {
  const ScenarioSpec spec = tiny_spec("mixed_table");
  runtime::SerialExecutor exec;
  ShardStore store(/*memo=*/true, /*dir=*/"", /*max_bytes=*/0);
  EngineContext context{&exec, &store};

  const ScenarioResult cold = run_scenario(spec, context);
  EXPECT_EQ(cold.cache.cells_retrained, cold.cache.cells_total);
  const ScenarioResult warm = run_scenario(spec, context);
  EXPECT_EQ(warm.cache.cells_retrained, 0u);
  EXPECT_EQ(warm.cache.cells_total, cold.cache.cells_total);
  EXPECT_EQ(warm.cache.cache_hits, warm.cache.cells_total);
  EXPECT_EQ(comparable_cells(cold), comparable_cells(warm));

  // The baseline is one of those cells: preparing the same context
  // against the store is a hit in the shard named by its context key.
  sim::ExperimentConfig cfg;
  cfg.seed = spec.seed;
  cfg.corpus.n_instances = spec.instances;
  cfg.svm.epochs = spec.epochs;
  cfg.try_real_corpus = false;
  sim::BaselineMemo memo{[&store](std::uint64_t key) {
    return store.shard(key);
  }};
  (void)sim::prepare_experiment(cfg, &memo);
  EXPECT_EQ(memo.hits, 1u);
  EXPECT_EQ(memo.retrained, 0u);
  EXPECT_EQ(store.shard_count(), 1u);
}

class DiskCacheScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pg_scenario_cache_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(DiskCacheScenarioTest, WarmRunRetrainsNothingAndMatchesColdRun) {
  ScenarioSpec spec = tiny_spec("mixed_table");
  spec.cache_dir = dir_;

  const ScenarioResult cold = run_scenario(spec);
  EXPECT_TRUE(cold.cache.enabled);
  EXPECT_TRUE(cold.cache.disk_enabled);
  EXPECT_EQ(cold.cache.disk_entries_loaded, 0u);
  EXPECT_GT(cold.cache.cells_retrained, 0u);
  EXPECT_GT(cold.cache.disk_entries_saved, 0u);

  const ScenarioResult warm = run_scenario(spec);
  EXPECT_EQ(warm.cache.cells_retrained, 0u)
      << "warm disk-cached re-run must not retrain any payoff cell";
  EXPECT_GT(warm.cache.cache_hits, 0u);
  EXPECT_GT(warm.cache.disk_entries_loaded, 0u);
  EXPECT_EQ(comparable_cells(cold), comparable_cells(warm));
}

TEST_F(DiskCacheScenarioTest, TweakedSweepReusesOverlappingCells) {
  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.cache_dir = dir_;
  (void)run_scenario(spec);

  // Denser grid over the same range: the original grid points recur at
  // the same fractions but different grid indices, EXCEPT the endpoints
  // of this 3 -> 5 step refinement... the shared cells are the ones
  // whose (fraction, index) pair matches; at minimum the p = 0 cell.
  ScenarioSpec tweaked = spec;
  tweaked.sweep_steps = 5;
  const ScenarioResult rerun = run_scenario(tweaked);
  EXPECT_GT(rerun.cache.cache_hits, 0u);
  EXPECT_LT(rerun.cache.cells_retrained, 5u);  // reused at least one
}

TEST_F(DiskCacheScenarioTest, CorruptShardFallsBackToColdRun) {
  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.cache_dir = dir_;
  const ScenarioResult cold = run_scenario(spec);

  // Trash every shard file: the loader must ignore them, recompute, and
  // produce identical results.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream file(entry.path(), std::ios::binary | std::ios::trunc);
    file << "this is not a cache file";
  }
  const ScenarioResult recovered = run_scenario(spec);
  EXPECT_EQ(recovered.cache.disk_entries_loaded, 0u);
  EXPECT_GT(recovered.cache.cells_retrained, 0u);
  EXPECT_EQ(comparable_cells(cold), comparable_cells(recovered));
}

// ----------------------------------------------------------------- sinks

TEST(SinkTest, JsonIsMachineReadableAndCarriesCacheStats) {
  ScenarioSpec spec = tiny_spec("pure_sweep");
  const ScenarioResult result = run_scenario(spec);
  std::ostringstream out;
  write_json(result, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"scenario\": \"tiny_pure_sweep\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cells_retrained\""), std::string::npos);
  EXPECT_NE(json.find("\"tables\""), std::string::npos);

  std::ostringstream csv;
  write_csv(result, csv);
  EXPECT_NE(csv.str().find("# table,pure_sweep"), std::string::npos);

  std::ostringstream text;
  write_text(result, text);
  EXPECT_NE(text.str().find("executor threads:"), std::string::npos);

  std::ostringstream sink;
  EXPECT_THROW(write_result(result, "xml", sink), std::invalid_argument);
}

// ----------------------------------------------------------------- sweep

TEST(SweepTest, ParsesRangeAndListClauses) {
  const SweepAxis range = parse_sweep_clause("epochs=100..500:5");
  EXPECT_EQ(range.key, "epochs");
  EXPECT_EQ(range.values,
            (std::vector<std::string>{"100", "200", "300", "400", "500"}));
  EXPECT_EQ(range.clause, "epochs=100..500:5");

  // Steps default to 5 and the normalized clause spells them out.
  EXPECT_EQ(parse_sweep_clause("epochs=0..400").clause, "epochs=0..400:5");

  const SweepAxis frac = parse_sweep_clause("sweep_max=0.1..0.4:4");
  EXPECT_EQ(frac.values,
            (std::vector<std::string>{"0.1", "0.2", "0.30000000000000004",
                                      "0.4"}));

  const SweepAxis list = parse_sweep_clause(" seed = 1, 2,3 ");
  EXPECT_EQ(list.key, "seed");
  EXPECT_EQ(list.values, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(list.clause, "seed=1,2,3");

  // Strings sweep through the list form.
  EXPECT_EQ(parse_sweep_clause("lp_pricing=bland,dantzig").values.size(), 2u);
}

TEST(SweepTest, RejectsMalformedClausesLoudly) {
  EXPECT_THROW((void)parse_sweep_clause("epochs"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_clause("=1,2"), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_clause("no_such_key=1,2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_clause("epochs="), std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_clause("epochs=1,,3"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_clause("epochs=1..x:3"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_clause("epochs=1..9:1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_clause("epochs=1..9:banana"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_sweep_clause("sweep=1,2"), std::invalid_argument);
  // Run-wide envelope keys can never vary per point: reject, don't emit
  // a mislabeled grid.
  for (const char* fixed :
       {"use_cache=true,false", "cache_dir=a,b", "cache_max_bytes=1,2",
        "name=a,b", "description=a,b"}) {
    EXPECT_THROW((void)parse_sweep_clause(fixed), std::invalid_argument)
        << fixed;
  }
}

TEST(SweepTest, PlanExpandsCrossProductRowMajor) {
  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.add_sweep("epochs=10..20:3");
  spec.add_sweep("seed=1,2");
  const SweepPlan plan(spec);
  ASSERT_EQ(plan.axes().size(), 2u);
  EXPECT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan.axis_keys(), (std::vector<std::string>{"epochs", "seed"}));

  // Last axis fastest: (10,1), (10,2), (15,1), ...
  const auto c0 = plan.coordinates(0);
  const auto c1 = plan.coordinates(1);
  const auto c2 = plan.coordinates(2);
  EXPECT_EQ(c0[0].second, "10");
  EXPECT_EQ(c0[1].second, "1");
  EXPECT_EQ(c1[0].second, "10");
  EXPECT_EQ(c1[1].second, "2");
  EXPECT_EQ(c2[0].second, "15");

  const ScenarioSpec child = plan.child(3);
  EXPECT_EQ(child.epochs, 15u);
  EXPECT_EQ(child.seed, 2u);
  EXPECT_TRUE(child.sweeps.empty()) << "children must be leaf specs";

  // Duplicate axes and type-invalid values fail at plan time.
  ScenarioSpec dup = spec;
  dup.add_sweep("seed=7,8");
  EXPECT_THROW((void)SweepPlan(dup), std::invalid_argument);
  ScenarioSpec bad = tiny_spec("pure_sweep");
  bad.add_sweep("epochs=0.5,1.5");  // integer field, fractional values
  EXPECT_THROW((void)SweepPlan(bad), std::invalid_argument);
}

TEST(SpecTest, SweepLinesAppendAndSetReplaces) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "kind = pure_sweep\n"
      "sweep = epochs=10..20:3\n"
      "sweep = seed=1,2\n");
  EXPECT_EQ(spec.sweeps,
            (std::vector<std::string>{"epochs=10..20:3", "seed=1,2"}));

  // to_text round-trips the axis list exactly.
  const ScenarioSpec reparsed = ScenarioSpec::parse(spec.to_text());
  EXPECT_EQ(reparsed.to_text(), spec.to_text());
  EXPECT_EQ(reparsed.sweeps, spec.sweeps);

  // set() replaces the whole list (last --set wins); empty clears.
  ScenarioSpec replaced = spec;
  replaced.set("sweep", "draws=1,2; instances=100,200");
  EXPECT_EQ(replaced.sweeps,
            (std::vector<std::string>{"draws=1,2", "instances=100,200"}));
  replaced.set("sweep", "");
  EXPECT_TRUE(replaced.sweeps.empty());

  // A rejected override must leave the axis list untouched -- neither
  // cleared nor half-replaced (strong guarantee).
  ScenarioSpec guarded = spec;
  EXPECT_THROW(guarded.set("sweep", "draws=1,2; nope=1..2:2"),
               std::invalid_argument);
  EXPECT_EQ(guarded.sweeps, spec.sweeps);
  EXPECT_THROW(guarded.add_sweep("draws=1,2; nope=3,4"),
               std::invalid_argument);
  EXPECT_EQ(guarded.sweeps, spec.sweeps);
}

// Property test: randomized specs (including sweep axes) must round-trip
// parse(to_text()) to the identical text, and malformed input must throw
// rather than fall back to a default.
TEST(SpecTest, FuzzedSpecsRoundTripExactly) {
  std::mt19937_64 rng(20260730u);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Charset avoids what the line format reserves: newlines, '"' (quote
  // stripping), '#' (comments), ';' (sweep separator) -- and values are
  // generated with non-space, non-comma edges so trimming and the
  // JSON-ish trailing-comma strip cannot alter them.
  const std::string mid_chars =
      "abcdefghijklmnopqrstuvwxyzABCXYZ0123456789_-./:=(), ";
  const std::string edge_chars = "abcdefghijklmnopqrstuvwxyz0123456789_";
  const auto rand_string = [&] {
    const std::size_t len = pick(18);
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
      const bool edge = i == 0 || i + 1 == len;
      const std::string& chars = edge ? edge_chars : mid_chars;
      s.push_back(chars[pick(chars.size())]);
    }
    return s;
  };
  const auto rand_double = [&]() -> double {
    switch (pick(4)) {
      case 0: return static_cast<double>(pick(1000)) / 8.0;  // exact dyadic
      case 1: return 0.1 * static_cast<double>(pick(10));    // repeating
      case 2: return std::ldexp(static_cast<double>(rng() % (1ULL << 53)),
                                static_cast<int>(pick(60)) - 30);
      default: return static_cast<double>(pick(7));
    }
  };

  for (int iter = 0; iter < 200; ++iter) {
    ScenarioSpec spec;
    spec.name = rand_string();
    spec.kind = rand_string();
    spec.description = rand_string();
    spec.seed = rng();
    spec.instances = pick(100000);
    spec.epochs = pick(1000);
    spec.train_fraction = rand_double();
    spec.poison_fraction = rand_double();
    spec.class_separation = rand_double();
    spec.real_corpus = pick(2) == 0;
    spec.sweep_max = rand_double();
    spec.sweep_steps = pick(64);
    spec.replications = pick(8);
    spec.attacks = rand_string();
    spec.defenses = rand_string();
    spec.lp_pricing = rand_string();
    spec.threads = pick(16);
    spec.use_cache = pick(2) == 0;
    spec.cache_dir = rand_string();
    spec.cache_max_bytes = rng() % (1ULL << 40);
    const std::size_t n_axes = pick(3);
    const char* axis_keys[] = {"epochs", "seed", "train_fraction", "draws"};
    for (std::size_t a = 0; a < n_axes; ++a) {
      const std::string key = axis_keys[a];
      if (pick(2) == 0) {
        spec.add_sweep(key + "=" + std::to_string(pick(50)) + ".." +
                       std::to_string(50 + pick(50)) + ":" +
                       std::to_string(2 + pick(4)));
      } else {
        spec.add_sweep(key + "=" + std::to_string(pick(100)) + "," +
                       std::to_string(pick(100)));
      }
    }

    const std::string text = spec.to_text();
    const ScenarioSpec parsed = ScenarioSpec::parse(text);
    ASSERT_EQ(parsed.to_text(), text) << "iteration " << iter;
    ASSERT_EQ(parsed.sweeps, spec.sweeps) << "iteration " << iter;
    ASSERT_EQ(parsed.seed, spec.seed) << "iteration " << iter;
    ASSERT_EQ(parsed.train_fraction, spec.train_fraction)
        << "iteration " << iter;
  }

  // Malformed inputs: unknown keys, bad values, bad sweep clauses --
  // every one must throw, never parse to a silent default.
  ScenarioSpec probe;
  for (int iter = 0; iter < 100; ++iter) {
    const std::string junk = rand_string();
    if (junk.empty()) continue;
    bool known = false;
    for (const std::string& key : ScenarioSpec::keys()) known |= key == junk;
    if (known) continue;
    EXPECT_THROW(probe.set(junk, "1"), std::invalid_argument)
        << "unknown key '" << junk << "' must be rejected";
  }
  const char* malformed[] = {
      "instances = 12abc",    "epochs = -3",
      "sweep_max = one",      "use_cache = maybe",
      "sweep = epochs",       "sweep = epochs=1..",
      "sweep = epochs=1..9:0", "sweep = wat=1,2",
      "cache_max_bytes = big",
  };
  for (const char* line : malformed) {
    EXPECT_THROW((void)ScenarioSpec::parse(line), std::invalid_argument)
        << line;
  }
}

TEST(EngineTest, TwoAxisSweepRunsAsOneGrid) {
  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.add_sweep("epochs=10..20:3");
  spec.add_sweep("seed=1,2");
  const ScenarioResult grid = run_scenario(spec);

  EXPECT_EQ(grid.sweep_axes, (std::vector<std::string>{"epochs", "seed"}));
  ASSERT_FALSE(grid.metrics.empty());
  EXPECT_EQ(grid.metrics[0].first, "sweep_points");
  EXPECT_EQ(grid.metrics[0].second.number(), 6.0);

  // Every child table gained the two coordinate columns and the six
  // points' rows concatenated: 6 points x sweep_steps grid rows.
  const ResultTable* sweep_table = nullptr;
  const ResultTable* metrics_table = nullptr;
  for (const ResultTable& table : grid.tables) {
    if (table.name == "pure_sweep") sweep_table = &table;
    if (table.name == "sweep_metrics") metrics_table = &table;
  }
  ASSERT_NE(sweep_table, nullptr);
  ASSERT_NE(metrics_table, nullptr);
  ASSERT_GE(sweep_table->columns.size(), 2u);
  EXPECT_EQ(sweep_table->columns[0], "epochs");
  EXPECT_EQ(sweep_table->columns[1], "seed");
  EXPECT_EQ(sweep_table->rows.size(), 6u * spec.sweep_steps);
  // Point (epochs=15, seed=2) really ran at those knobs: its rows carry
  // exactly those coordinates.
  std::size_t matching = 0;
  for (const auto& row : sweep_table->rows) {
    if (row[0].number() == 15.0 && row[1].number() == 2.0) ++matching;
  }
  EXPECT_EQ(matching, spec.sweep_steps);
  EXPECT_EQ(metrics_table->columns.back(), "value");

  // The whole grid is bit-identical at 1 vs N threads.
  ScenarioSpec threaded = spec;
  threaded.threads = 3;
  EXPECT_EQ(comparable_cells(grid), comparable_cells(run_scenario(threaded)));

  // A grid point identical to a plain run produces that run's numbers:
  // the merged artifact is a concatenation, not a reinterpretation.
  ScenarioSpec single = tiny_spec("pure_sweep");
  single.epochs = 10;
  single.seed = 1;
  const ScenarioResult lone = run_scenario(single);
  const ResultTable& lone_table = lone.tables[0];
  ASSERT_EQ(lone_table.name, "pure_sweep");
  for (std::size_t r = 0; r < lone_table.rows.size(); ++r) {
    for (std::size_t c = 0; c < lone_table.columns.size(); ++c) {
      EXPECT_EQ(sweep_table->rows[r][c + 2].render(),
                lone_table.rows[r][c].render());
    }
  }
}

TEST(EngineTest, SweepingThreadsStaysBitIdentical) {
  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.add_sweep("threads=1,3");
  const ScenarioResult grid = run_scenario(spec);
  // The two points differ ONLY in their coordinate column.
  const ResultTable* table = nullptr;
  for (const ResultTable& t : grid.tables) {
    if (t.name == "pure_sweep") table = &t;
  }
  ASSERT_NE(table, nullptr);
  const std::size_t half = table->rows.size() / 2;
  ASSERT_EQ(table->rows.size(), 2 * half);
  for (std::size_t r = 0; r < half; ++r) {
    for (std::size_t c = 1; c < table->columns.size(); ++c) {
      EXPECT_EQ(table->rows[r][c].render(),
                table->rows[r + half][c].render());
    }
  }
}

TEST(EngineTest, PointParallelGridBitIdenticalAcrossThreadCounts) {
  // The whole grid dispatches point-parallel on the nested executor; the
  // merged artifact must be bit-identical at 1/2/4 threads, with rows in
  // plan order regardless of completion order.
  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.add_sweep("epochs=10..20:2");
  spec.add_sweep("seed=1,2");
  spec.threads = 1;
  const auto serial = comparable_cells(run_scenario(spec));
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    spec.threads = threads;
    EXPECT_EQ(comparable_cells(run_scenario(spec)), serial)
        << threads << " threads";
  }
}

TEST(EngineTest, DefenseAblationUsesItsExecutorAndStaysBitIdentical) {
  // The pipeline runner used to ignore its executor ((void)exec); its
  // (attack x defense) cells now dispatch cell-parallel and must still
  // reproduce the sequential rows exactly, cold and warm.
  ScenarioSpec spec = tiny_spec("defense_ablation");
  spec.threads = 1;
  const auto serial = comparable_cells(run_scenario(spec));
  spec.threads = 4;
  EXPECT_EQ(comparable_cells(run_scenario(spec)), serial);
}

TEST(EngineTest, AggregateCollapsesNamedAxes) {
  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.add_sweep("epochs=10..20:2");
  spec.add_sweep("seed=1,2");
  spec.aggregate = "seed";
  const ScenarioResult grid = run_scenario(spec);

  const ResultTable* aggregates = nullptr;
  const ResultTable* metrics = nullptr;
  for (const ResultTable& t : grid.tables) {
    if (t.name == "sweep_aggregates") aggregates = &t;
    if (t.name == "sweep_metrics") metrics = &t;
  }
  ASSERT_NE(aggregates, nullptr);
  ASSERT_NE(metrics, nullptr);
  // The aggregated axis is gone, the kept axis leads, and the stats
  // columns follow.
  EXPECT_EQ(aggregates->columns,
            (std::vector<std::string>{"epochs", "metric", "mean", "min",
                                      "max", "count"}));
  ASSERT_FALSE(aggregates->rows.empty());

  // Cross-check one group against the raw per-point metrics: the
  // clean_accuracy mean over seed at the first epochs value.
  const double epochs0 = aggregates->rows[0][0].number();
  double sum = 0.0;
  double mn = 0.0;
  double mx = 0.0;
  std::size_t count = 0;
  for (const auto& row : metrics->rows) {
    if (row[0].number() != epochs0) continue;
    if (row[2].is_number() || row[2].text() != "clean_accuracy") continue;
    const double v = row[3].number();
    if (count == 0) {
      mn = v;
      mx = v;
    }
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    ++count;
  }
  ASSERT_EQ(count, 2u) << "one value per swept seed";
  const ResultTable& agg = *aggregates;
  bool found = false;
  for (const auto& row : agg.rows) {
    if (row[0].number() != epochs0 || row[1].text() != "clean_accuracy") {
      continue;
    }
    found = true;
    EXPECT_EQ(row[2].number(), sum / static_cast<double>(count));
    EXPECT_EQ(row[3].number(), mn);
    EXPECT_EQ(row[4].number(), mx);
    EXPECT_EQ(row[5].number(), static_cast<double>(count));
  }
  EXPECT_TRUE(found);

  // Aggregating every axis leaves metric-only groups.
  spec.aggregate = "seed,epochs";
  const ScenarioResult all = run_scenario(spec);
  for (const ResultTable& t : all.tables) {
    if (t.name != "sweep_aggregates") continue;
    EXPECT_EQ(t.columns.front(), "metric");
    for (const auto& row : t.rows) {
      EXPECT_EQ(row.back().number(), 4.0) << "2x2 grid collapses fully";
    }
  }

  // Deterministic at any thread count, like everything else.
  spec.aggregate = "seed";
  spec.threads = 1;
  const auto serial = comparable_cells(run_scenario(spec));
  spec.threads = 4;
  EXPECT_EQ(comparable_cells(run_scenario(spec)), serial);
}

TEST(EngineTest, AggregateValidationFailsLoudly) {
  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.add_sweep("seed=1,2");
  spec.aggregate = "epochs";  // swept axes are seed only
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);

  ScenarioSpec no_grid = tiny_spec("pure_sweep");
  no_grid.aggregate = "seed";  // no sweep clauses at all
  EXPECT_THROW((void)run_scenario(no_grid), std::invalid_argument);
}

// ------------------------------------------------------------------ diff

namespace {

/// A tiny single-run artifact in the JSON sink's shape.
std::string artifact(double accuracy, double time_ms = 1.0,
                     const char* extra_metric = nullptr) {
  std::ostringstream os;
  os << "{\"scenario\": \"t\", \"kind\": \"pure_sweep\", \"threads\": 2,\n"
     << "\"elapsed_seconds\": 0.5, \"sweep_axes\": [\"seed\"],\n"
     << "\"cache\": {\"enabled\": true, \"cells_retrained\": 7},\n"
     << "\"metrics\": {\"clean_accuracy\": " << accuracy
     << ", \"solve_ms\": " << time_ms;
  if (extra_metric != nullptr) os << ", \"" << extra_metric << "\": 1";
  os << "},\n"
     << "\"tables\": [{\"name\": \"pure_sweep\","
     << " \"columns\": [\"seed\", \"p\", \"acc\", \"fit_ms\"],"
     << " \"rows\": [[1, 0, " << accuracy << ", " << time_ms << "],"
     << " [1, 0.5, 0.25, 2]]}]}";
  return os.str();
}

}  // namespace

TEST(DiffTest, ParsesJsonAndRejectsGarbage) {
  const JsonValue v = parse_json(
      "{\"a\": [1, -2.5e2, \"x\\n\\u0041\"], \"b\": {\"c\": true}}");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[1].number, -250.0);
  EXPECT_EQ(a->items[2].text, "x\nA");
  EXPECT_NE(v.find("b")->find("c"), nullptr);
  EXPECT_EQ(v.find("nope"), nullptr);

  // Nesting is capped at 256 levels: `[` x 2M and `{"a":` x 500k used to
  // overflow the parser's stack instead of failing.
  std::string deep_objects;
  for (int i = 0; i < 500'000; ++i) deep_objects += "{\"a\":";
  for (const std::string& bad :
       {std::string(""), std::string("{"), std::string("[1,]"),
        std::string("{\"a\" 1}"), std::string("{\"a\": 1} trailing"),
        std::string("nul"), std::string("\"open"),
        std::string(257, '[') + std::string(257, ']'),
        std::string(2'000'000, '['), deep_objects}) {
    EXPECT_THROW((void)parse_json(bad), std::invalid_argument)
        << bad.substr(0, 32);
  }
  EXPECT_NO_THROW(
      (void)parse_json(std::string(256, '[') + std::string(256, ']')));
  try {
    (void)parse_json(deep_objects);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "JSON: nesting deeper than 256 levels at byte 1280"),
              std::string::npos)
        << e.what();
  }
}

TEST(DiffTest, IdenticalResultsAreCleanAndTimingIsIgnored) {
  const JsonValue a = parse_json(artifact(0.75, 1.0));
  const JsonValue b = parse_json(artifact(0.75, 99.0));  // timings differ
  const ResultDiff diff = diff_results(a, b);
  EXPECT_TRUE(diff.clean());
  EXPECT_GT(diff.values_compared, 0u);
  EXPECT_EQ(diff.values_compared, diff.values_matched);

  // With timing included the _ms drift surfaces.
  DiffOptions with_timing;
  with_timing.ignore_timing = false;
  EXPECT_FALSE(diff_results(a, b, with_timing).clean());
}

TEST(DiffTest, ToleranceGatesDriftBothWays) {
  const JsonValue a = parse_json(artifact(0.750000));
  const JsonValue b = parse_json(artifact(0.750001));
  EXPECT_FALSE(diff_results(a, b).clean());  // exact mode

  DiffOptions loose;
  loose.tolerance = 1e-4;
  EXPECT_TRUE(diff_results(a, b, loose).clean());

  DiffOptions tight;
  tight.tolerance = 1e-9;
  const ResultDiff diff = diff_results(a, b, tight);
  ASSERT_EQ(diff.count(DiffKind::kDrift), 2u);  // metric + table cell
  EXPECT_TRUE(diff.entries[0].numeric);
  EXPECT_NEAR(diff.entries[0].abs_delta, 1e-6, 1e-12);
}

TEST(DiffTest, DistinguishesMissingAndExtraRowsFromDrift) {
  const JsonValue a = parse_json(
      "{\"scenario\": \"t\", \"kind\": \"k\", \"metrics\": {\"m\": 1},"
      " \"tables\": [{\"name\": \"tab\", \"columns\": [\"n\", \"v\"],"
      " \"rows\": [[1, 10], [2, 20]]}]}");
  const JsonValue b = parse_json(
      "{\"scenario\": \"t\", \"kind\": \"k\", \"metrics\": {\"m2\": 1},"
      " \"tables\": [{\"name\": \"tab\", \"columns\": [\"n\", \"v\"],"
      " \"rows\": [[2, 20], [3, 30]]}]}");
  const ResultDiff diff = diff_results(a, b);
  // Row n=1 and metric m vanished, row n=3 and metric m2 appeared; the
  // shared row n=2 matches -- no value drift anywhere.
  EXPECT_EQ(diff.count(DiffKind::kMissing), 2u);
  EXPECT_EQ(diff.count(DiffKind::kExtra), 2u);
  EXPECT_EQ(diff.count(DiffKind::kDrift), 0u);
}

TEST(DiffTest, AlignsMergedArtifactsByRunName) {
  const std::string run = artifact(0.5);
  const JsonValue a =
      parse_json("{\"fig1\": " + run + ", \"gone\": " + run + "}");
  const JsonValue b =
      parse_json("{\"fig1\": " + artifact(0.75) + ", \"new\": " + run + "}");
  const ResultDiff diff = diff_results(a, b);
  EXPECT_EQ(diff.count(DiffKind::kMissing), 1u);  // run "gone"
  EXPECT_EQ(diff.count(DiffKind::kExtra), 1u);    // run "new"
  EXPECT_GE(diff.count(DiffKind::kDrift), 1u);    // fig1 accuracy moved
  // Mixing a single run with a merged artifact is a usage error.
  EXPECT_THROW((void)diff_results(parse_json(run), a),
               std::invalid_argument);
}

TEST(DiffTest, ReportNamesTheDriftedMetric) {
  const ResultDiff diff = diff_results(parse_json(artifact(0.5)),
                                       parse_json(artifact(0.75)));
  std::ostringstream report;
  write_diff_report(diff, {}, report);
  EXPECT_NE(report.str().find("clean_accuracy"), std::string::npos);
  EXPECT_NE(report.str().find("DRIFT"), std::string::npos);
  EXPECT_NE(report.str().find("0.5 -> 0.75"), std::string::npos);
}

// -------------------------------------------------------- cli: sweep/diff

TEST(CliTest, SweepFlagAppendsAxes) {
  const CliOptions options = parse_cli(
      {"--scenario", "fig1", "--sweep", "epochs=10..20:3", "--sweep",
       "seed=1,2"});
  ASSERT_EQ(options.overrides.size(), 2u);
  EXPECT_EQ(options.overrides[0],
            (std::pair<std::string, std::string>{"sweep+", "epochs=10..20:3"}));

  std::ostringstream out;
  std::ostringstream err;
  const int rc = run_cli(parse_cli({"--scenario", "fig1", "--sweep",
                                    "epochs=10..20:3", "--sweep", "seed=1,2",
                                    "--print-spec"}),
                         out, err);
  ASSERT_EQ(rc, 0) << err.str();
  const ScenarioSpec resolved = ScenarioSpec::parse(out.str());
  EXPECT_EQ(resolved.sweeps,
            (std::vector<std::string>{"epochs=10..20:3", "seed=1,2"}));
}

TEST(CliTest, ParsesCompareFlags) {
  const CliOptions options = parse_cli(
      {"--compare", "a.json", "b.json", "--tolerance", "1e-6",
       "--update-baseline"});
  EXPECT_TRUE(options.compare);
  EXPECT_EQ(options.compare_baseline, "a.json");
  EXPECT_EQ(options.compare_candidate, "b.json");
  EXPECT_EQ(options.tolerance, 1e-6);
  EXPECT_TRUE(options.update_baseline);

  EXPECT_THROW(parse_cli({"--compare", "a.json"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--compare", "a", "b", "--scenario", "fig1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--update-baseline"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--compare", "a", "b", "--tolerance", "-1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--compare", "a", "b", "--tolerance", "wat"}),
               std::invalid_argument);
}

class CompareCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pg_compare_cli_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& body) {
    const std::string path = dir_ + "/" + name;
    std::ofstream file(path);
    file << body;
    return path;
  }
  std::string dir_;
};

TEST_F(CompareCliTest, CompareExitsZeroOnMatchOneOnDrift) {
  const std::string a = write("a.json", artifact(0.5));
  const std::string same = write("same.json", artifact(0.5, 42.0));
  const std::string drifted = write("drifted.json", artifact(0.75));

  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, same}), out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("results match"), std::string::npos);

  std::ostringstream out2;
  std::ostringstream err2;
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, drifted, "--tolerance",
                               "1e-6"}),
                    out2, err2),
            1);
  EXPECT_NE(out2.str().find("DRIFT"), std::string::npos);
  EXPECT_NE(err2.str().find("differ"), std::string::npos);

  // Unreadable / malformed inputs: exit 1 with an error, no crash.
  std::ostringstream out3;
  std::ostringstream err3;
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, dir_ + "/nope.json"}), out3,
                    err3),
            1);
  const std::string junk = write("junk.json", "not json at all");
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, junk}), out3, err3), 1);
  const std::string deep = write("deep.json", std::string(2'000'000, '['));
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, deep}), out3, err3), 1);
  EXPECT_NE(err3.str().find("nesting deeper than"), std::string::npos)
      << err3.str();
}

TEST_F(CompareCliTest, UpdateBaselineAcceptsTheCandidate) {
  const std::string a = write("a.json", artifact(0.5));
  const std::string b = write("b.json", artifact(0.75));

  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(
      run_cli(parse_cli({"--compare", a, b, "--update-baseline"}), out, err),
      0)
      << err.str();
  EXPECT_NE(out.str().find("baseline updated"), std::string::npos);

  // The baseline now IS the candidate: a re-compare is clean.
  std::ostringstream out2;
  std::ostringstream err2;
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, b}), out2, err2), 0);
}

// ------------------------------------------- cache robustness & eviction

TEST_F(DiskCacheScenarioTest, UnwritableCacheDirDegradesToColdRun) {
  // The configured path sits under a regular file, so every mkdir/open
  // fails regardless of uid. The run must complete cold with identical
  // numbers -- never throw.
  std::filesystem::create_directories(dir_);
  { std::ofstream blocker(dir_ + "/blocker"); blocker << "x"; }

  ScenarioSpec plain = tiny_spec("pure_sweep");
  plain.use_cache = false;
  const ScenarioResult expected = run_scenario(plain);

  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.cache_dir = dir_ + "/blocker/cache";
  ScenarioResult result;
  ASSERT_NO_THROW(result = run_scenario(spec));
  EXPECT_TRUE(result.cache.disk_enabled);
  EXPECT_EQ(result.cache.disk_entries_loaded, 0u);
  EXPECT_EQ(result.cache.disk_entries_saved, 0u);
  EXPECT_GT(result.cache.cells_retrained, 0u);
  EXPECT_EQ(comparable_cells(result), comparable_cells(expected));

  // And a second cold run against the same broken dir behaves the same.
  ScenarioResult again;
  ASSERT_NO_THROW(again = run_scenario(spec));
  EXPECT_EQ(comparable_cells(again), comparable_cells(expected));
}

TEST_F(DiskCacheScenarioTest, CacheMaxBytesCapsTheDirectory) {
  ScenarioSpec spec = tiny_spec("pure_sweep");
  spec.cache_dir = dir_;
  const ScenarioResult uncapped = run_scenario(spec);
  EXPECT_GT(uncapped.cache.disk_entries_saved, 0u);
  EXPECT_EQ(uncapped.cache.disk_shards_evicted, 0u);

  std::uintmax_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    total += std::filesystem::file_size(entry.path());
  }
  ASSERT_GT(total, 1u);

  // Re-run with a cap smaller than the shard on disk: the engine still
  // finishes (identical numbers) and the directory ends under the cap.
  ScenarioSpec capped = spec;
  capped.cache_max_bytes = 1;
  const ScenarioResult result = run_scenario(capped);
  EXPECT_EQ(comparable_cells(result), comparable_cells(uncapped));
  EXPECT_GT(result.cache.disk_shards_evicted, 0u);
  EXPECT_EQ(result.cache.disk_max_bytes, 1u);
  std::uintmax_t after = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    after += std::filesystem::file_size(entry.path());
  }
  EXPECT_LE(after, 1u);
}

// --------------------------------------------- distributed sweep sharding

TEST(CoordinateValueTest, OnlyCanonicalGridRenderingsAreNumeric) {
  // Numeric: exactly the two forms format_grid_value emits -- plain
  // integer text, or the shortest round-trip double rendering.
  EXPECT_EQ(coordinate_value("10").number(), 10.0);
  EXPECT_EQ(coordinate_value("-5").number(), -5.0);
  EXPECT_EQ(coordinate_value("0").number(), 0.0);
  EXPECT_EQ(coordinate_value("0.05").number(), 0.05);
  EXPECT_EQ(coordinate_value("1e+06").number(), 1e6);

  // Everything else stays the string the spec text spelled, even when
  // strtod would happily parse it: non-finite and non-canonical numeric
  // spellings must survive a JSON round-trip as merge keys.
  for (const char* text : {"inf", "-inf", "nan", "0x10", "007", "1e3",
                           "10.0", "+5", " 10", ""}) {
    const Value v = coordinate_value(text);
    EXPECT_FALSE(v.is_number()) << "'" << text << "' must stay a string";
    EXPECT_EQ(v.render(), text);
  }
}

TEST(CliTest, ShardFlagValidation) {
  const CliOptions sharded =
      parse_cli({"--scenario", "fig1", "--shard", "2/5"});
  EXPECT_EQ(sharded.shard_index, 2u);
  EXPECT_EQ(sharded.shard_total, 5u);

  // Malformed i/N fails at parse time, before any compute.
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard", "3"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard", "a/b"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard", "1/"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard", "/3"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard", "-1/3"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard", "1/0"}),
               std::invalid_argument);
  // index >= N: the stride would be empty for every worker's intent.
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard", "3/3"}),
               std::invalid_argument);

  // Mode exclusions, all fail-fast in parse_cli.
  EXPECT_THROW(parse_cli({"--merge", "a.json", "--scenario", "fig1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--merge"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--compare", "a.json", "b.json", "--shard", "0/2"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard", "0/2",
                          "--shard-exec", "2", "--out-file", "x.json"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard-exec", "2"}),
               std::invalid_argument);  // needs --out-file
  EXPECT_THROW(parse_cli({"--scenario", "fig1", "--shard-exec", "0",
                          "--out-file", "x.json"}),
               std::invalid_argument);

  // --merge collects its trailing non-flag inputs.
  const CliOptions merge = parse_cli({"--merge", "a.json", "b.json"});
  EXPECT_TRUE(merge.merge);
  EXPECT_EQ(merge.merge_inputs,
            (std::vector<std::string>{"a.json", "b.json"}));
}

class ShardMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = tiny_spec("pure_sweep");
    spec_.add_sweep("epochs=10..20:3");
    spec_.add_sweep("seed=1,2");
  }

  // Run one shard and round-trip it through the JSON partial artifact,
  // exactly what a worker process hands to --merge.
  std::pair<std::string, JsonValue> partial(std::size_t i, std::size_t n) {
    const ScenarioResult part = run_scenario_shard(spec_, {i, n});
    std::ostringstream json;
    write_json(part, json);
    return {"shard-" + std::to_string(i), parse_json(json.str())};
  }

  ScenarioSpec spec_;
};

TEST_F(ShardMergeTest, TwoWayShardMergeIsBitIdenticalToFullRun) {
  const ScenarioResult merged = merge_partials({partial(0, 2), partial(1, 2)});
  std::ostringstream merged_json;
  write_json(merged, merged_json);

  const ScenarioResult full = run_scenario(spec_);
  std::ostringstream full_json;
  write_json(full, full_json);

  DiffOptions exact;  // tolerance 0: same machine, same bits
  const ResultDiff diff = diff_results(parse_json(full_json.str()),
                                       parse_json(merged_json.str()), exact);
  std::ostringstream report;
  write_diff_report(diff, exact, report);
  EXPECT_TRUE(diff.clean()) << report.str();
  EXPECT_FALSE(merged.partial.active());
  EXPECT_EQ(merged.sweep_axes, full.sweep_axes);
}

TEST_F(ShardMergeTest, MergeValidationNamesTheBrokenInput) {
  const auto p0 = partial(0, 2);
  const auto p1 = partial(1, 2);

  // Duplicate shard index.
  EXPECT_THROW((void)merge_partials({p0, p0}), std::invalid_argument);
  // Missing shard: the one validation failure a retry wrapper can fix,
  // so it throws the typed error carrying the absent indices (pg_run
  // --merge turns it into `missing_shards=...` + exit 4).
  try {
    (void)merge_partials({p0});
    FAIL() << "expected MissingShardsError";
  } catch (const MissingShardsError& e) {
    EXPECT_EQ(e.missing, std::vector<std::size_t>{1});
  }
  // A plain (non-partial) artifact in the mix.
  const ScenarioResult full = run_scenario(spec_);
  std::ostringstream full_json;
  write_json(full, full_json);
  EXPECT_THROW(
      (void)merge_partials({p0, {"full", parse_json(full_json.str())}}),
      std::invalid_argument);
  // Shards of DIFFERENT runs: same stride shape, different spec text.
  ScenarioSpec other = spec_;
  other.epochs = 21;
  const ScenarioResult foreign = run_scenario_shard(other, {1, 2});
  std::ostringstream foreign_json;
  write_json(foreign, foreign_json);
  EXPECT_THROW(
      (void)merge_partials({p0, {"foreign", parse_json(foreign_json.str())}}),
      std::invalid_argument);
  // Shards of mismatched fan-outs.
  const ScenarioResult third = run_scenario_shard(spec_, {1, 3});
  std::ostringstream third_json;
  write_json(third, third_json);
  EXPECT_THROW(
      (void)merge_partials({p0, {"of-three", parse_json(third_json.str())}}),
      std::invalid_argument);
  // The happy pair still merges (the fixture inputs were not consumed).
  EXPECT_NO_THROW((void)merge_partials({p0, p1}));
}

TEST_F(ShardMergeTest, ShardRequiresSweepAxesAndValidRange) {
  EXPECT_THROW((void)run_scenario_shard(spec_, {2, 2}),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario_shard(spec_, {0, 0}),
               std::invalid_argument);
  ScenarioSpec no_axes = tiny_spec("pure_sweep");
  EXPECT_THROW((void)run_scenario_shard(no_axes, {0, 2}),
               std::invalid_argument);
  // More shards than grid points: the surplus worker (index past the
  // 6-point grid) runs an EMPTY stride (legal -- merge still demands
  // all N partials).
  const ScenarioResult idle = run_scenario_shard(spec_, {6, 7});
  EXPECT_TRUE(idle.partial.active());
  EXPECT_TRUE(idle.partial.points.empty());
}

TEST_F(DiskCacheScenarioTest, ShardExecForksWorkersAndMergesTheirPartials) {
  // Drive the full orchestrator through run_cli: fork 2 workers over a
  // shared cache dir, wait, merge in-process, write the merged artifact.
  std::filesystem::create_directories(dir_);
  const std::string spec_path = dir_ + "/spec.txt";
  {
    ScenarioSpec spec = tiny_spec("pure_sweep");
    spec.add_sweep("epochs=10..20:3");
    spec.cache_dir = dir_ + "/cache";
    std::ofstream out(spec_path);
    out << spec.to_text();
  }
  const std::string merged_path = dir_ + "/merged.json";
  std::ostringstream out;
  std::ostringstream err;
  const int rc = run_cli(parse_cli({"--spec", spec_path, "--shard-exec", "2",
                                    "--out", "json", "--out-file",
                                    merged_path}),
                         out, err);
  ASSERT_EQ(rc, 0) << err.str();
  EXPECT_TRUE(std::filesystem::exists(merged_path));
  // The per-worker partials stay on disk for triage.
  EXPECT_TRUE(std::filesystem::exists(merged_path + ".shard-0"));
  EXPECT_TRUE(std::filesystem::exists(merged_path + ".shard-1"));

  // The merged artifact is value-identical to a direct run of the spec.
  std::ifstream spec_in(spec_path);
  std::ostringstream spec_text;
  spec_text << spec_in.rdbuf();
  const ScenarioResult full = run_scenario(ScenarioSpec::parse(spec_text.str()));
  std::ostringstream full_json;
  write_json(full, full_json);
  std::ifstream merged_in(merged_path);
  std::ostringstream merged_json;
  merged_json << merged_in.rdbuf();
  DiffOptions exact;
  const ResultDiff diff = diff_results(parse_json(full_json.str()),
                                       parse_json(merged_json.str()), exact);
  std::ostringstream report;
  write_diff_report(diff, exact, report);
  EXPECT_TRUE(diff.clean()) << report.str();
}

}  // namespace
}  // namespace pg::scenario
