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
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/payoff_evaluator.h"
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
#include "util/table.h"

namespace pg::scenario {
namespace {

#ifdef PG_OBS_DISABLED
constexpr bool kObs = false;
#else
constexpr bool kObs = true;
#endif

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
  // Keys of deleted code paths: a stale spec naming them fails.
  EXPECT_THROW(spec.set("kernel", "reference"), std::invalid_argument);
  EXPECT_THROW(spec.set("simd", "sse2"), std::invalid_argument);
  EXPECT_THROW(spec.set("timing_reps", "3"), std::invalid_argument);
  // Integers past 2^64-1 fail instead of saturating to the maximum.
  EXPECT_THROW(spec.set("seed", "18446744073709551616"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::parse("seed = 99999999999999999999\n"),
               std::invalid_argument);
  spec.set("seed", "18446744073709551615");
  EXPECT_EQ(spec.seed, 18446744073709551615ULL);
  EXPECT_THROW(ScenarioSpec::parse("a line without separator\n"),
               std::invalid_argument);
  EXPECT_THROW((void)spec.get("no_such_knob"), std::invalid_argument);
}

TEST(SpecTest, KeysCoverEveryFieldBothWays) {
  // get/set agree for every advertised key: set(key, get(key)) is a
  // no-op, so the table has no write-only or read-only entries.
  ScenarioSpec spec;
  spec.kind = "pure_ne";
  for (const std::string& key : ScenarioSpec::keys()) {
    ScenarioSpec copy = spec;
    copy.set(key, spec.get(key));
    EXPECT_EQ(copy.to_text(), spec.to_text()) << "key: " << key;
  }
}

// -------------------------------------------------------------- registry

TEST(RegistryTest, ListsEveryLegacyScenario) {
  const auto& registry = ScenarioRegistry::instance();
  // Exactly the seven paper scenarios, in catalog order.
  const std::vector<std::string> paper = {
      "fig1",     "table1",          "prop1",           "nsweep",
      "transfer", "solver_ablation", "defense_ablation"};
  EXPECT_EQ(registry.names(), paper);
  for (const std::string& name : paper) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const ScenarioSpec spec = registry.make(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.kind.empty());
    EXPECT_FALSE(spec.description.empty());
  }
  EXPECT_THROW((void)registry.make("nope"), std::invalid_argument);
}

TEST(RegistryTest, SpecsIgnoreTheEnvironment) {
  // The variables the registry once read as size defaults, one of them
  // malformed: none may change a spec or fail a lookup.
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  const std::vector<std::string> names = registry.names();
  std::vector<std::string> before;
  for (const std::string& name : names) {
    before.push_back(registry.make(name).to_text());
  }
  const std::pair<const char*, const char*> vars[] = {
      {"PG_BENCH_SEED", "7"},    {"PG_BENCH_INSTANCES", "4k"},
      {"PG_BENCH_EPOCHS", "5"},  {"PG_BENCH_REPS", "9"},
      {"PG_BENCH_THREADS", "3"}, {"PG_BENCH_SOLVER_REPS", "4"}};
  for (const auto& [var, value] : vars) ASSERT_EQ(setenv(var, value, 1), 0);
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(registry.make(names[i]).to_text(), before[i]) << names[i];
  }
  for (const auto& var : vars) ASSERT_EQ(unsetenv(var.first), 0);
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
  EXPECT_THROW(parse_cli({"--kernel", "simd"}), std::invalid_argument);
  // Removed flags must fail as unknown arguments, not be ignored.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--shard", "0/2"},
                                             {"--shard-exec", "2"},
                                             {"--shard-retries", "1"},
                                             {"--merge", "a.json"},
                                             {"--with-timing"}}) {
    try {
      (void)parse_cli(args);
      ADD_FAILURE() << args[0] << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "unknown argument: " + args[0] +
                    " (pg_run --help lists the options)");
    }
  }
  // A malformed --fault entry is a usage error at parse time, named by
  // the flag it came from.
  try {
    (void)parse_cli({"--list", "--fault", "x:throw@a0"});
    ADD_FAILURE() << "a malformed --fault was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("--fault: bad entry 'x:throw@a0'", 0), 0u) << what;
  }
  EXPECT_NO_THROW((void)parse_cli({"--fault", "artifact.out:throw@2"}));
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
  // The host fingerprint line closes the output.
  std::string text = out.str();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  const std::string last_line = text.substr(text.rfind('\n') + 1);
  EXPECT_EQ(last_line.rfind("# simd: detected=", 0), 0u) << last_line;
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
  // The deleted perf and service kinds are unknown too.
  for (const char* kind : {"no_such_kind", "micro", "serve_metrics"}) {
    const ScenarioSpec spec = tiny_spec(kind);
    EXPECT_THROW((void)run_scenario(spec), std::invalid_argument) << kind;
  }
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
      spec.replications);

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
  runtime::Executor exec(1);
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
  CacheBundle bundle(store, exec);
  (void)sim::prepare_experiment(
      cfg, [&bundle](std::uint64_t key) -> const runtime::PayoffEvaluator& {
        return bundle.evaluator(key);
      });
  CacheReport report;
  bundle.finish(report, /*spill=*/false);
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.cells_retrained, 0u);
  EXPECT_EQ(report.shards, 1u);
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
       {"threads=1,3", "use_cache=true,false", "cache_dir=a,b",
        "cache_max_bytes=1,2", "name=a,b", "description=a,b"}) {
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

/// A committed golden spec, by name.
ScenarioSpec golden_spec(const std::string& name) {
  return ScenarioSpec::parse(
      read_file(std::string(PG_GOLDEN_DIR) + "/" + name + ".spec"));
}

TEST(EngineTest, SolverAblationGamesBitIdenticalAcrossThreadCounts) {
  // The two games solve as two executor tasks, each filling its own
  // table and telemetry slot: tables and telemetry rows must come out in
  // the fixed order analytic, measured at any thread count. Each run
  // solves each game with Algorithm 1, the LP, FP and Hedge, so it adds
  // eight obs.stage.solve calls.
  ScenarioSpec spec = golden_spec("solver_ablation");
  spec.telemetry = true;
  obs::Timer& solves = obs::timer("obs.stage.solve");
  spec.threads = 1;
  std::uint64_t before = solves.stats().count;
  const ScenarioResult serial = run_scenario(spec);
  if (kObs) EXPECT_EQ(solves.stats().count - before, 8u);
  std::vector<std::string> names;
  for (const ResultTable& table : serial.tables) names.push_back(table.name);
  EXPECT_EQ(names, (std::vector<std::string>{"analytic_curves",
                                             "measured_curves", "telemetry"}));
  const auto& telemetry = serial.tables.back().rows;
  ASSERT_FALSE(telemetry.empty());
  EXPECT_EQ(telemetry.front()[0].text(), "analytic_curves");
  EXPECT_EQ(telemetry.back()[0].text(), "measured_curves");
  const auto cells = comparable_cells(serial);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    spec.threads = threads;
    before = solves.stats().count;
    EXPECT_EQ(comparable_cells(run_scenario(spec)), cells)
        << threads << " threads";
    if (kObs) EXPECT_EQ(solves.stats().count - before, 8u);
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

TEST(EngineTest, SharedStoreReportsOnlyTheShardsARunTouched) {
  // A resident server's store keeps every context it has served (five
  // here); each run's report counts only the contexts that run touched.
  runtime::Executor exec(2);
  ShardStore store(/*memo=*/true, /*dir=*/"", /*max_bytes=*/0);
  EngineContext context{&exec, &store};
  std::vector<std::size_t> shards;
  for (const char* name : {"fig1", "transfer", "fig1"}) {
    shards.push_back(run_scenario(golden_spec(name), context).cache.shards);
  }
  EXPECT_EQ(shards, (std::vector<std::size_t>{1, 4, 1}));
}

TEST(EngineTest, SupportSweepStartsAtSupportMin) {
  // nsweep solves n = support_min..support_max: at support_min = 2 the
  // golden spec yields the rows n = 2 and 3 of its support_min = 1 run,
  // unchanged.
  const ScenarioSpec from_one = golden_spec("nsweep");
  ASSERT_EQ(from_one.support_min, 1u);
  ASSERT_EQ(from_one.support_max, 3u);
  ScenarioSpec from_two = from_one;
  from_two.support_min = 2;
  const auto sweep_rows = [](const ScenarioSpec& spec) {
    const ScenarioResult result = run_scenario(spec);
    const auto table = std::find_if(
        result.tables.begin(), result.tables.end(),
        [](const ResultTable& t) { return t.name == "support_sweep"; });
    std::vector<std::vector<std::string>> rows;
    if (table == result.tables.end()) {
      ADD_FAILURE() << "no support_sweep table";
      return rows;
    }
    for (const auto& row : table->rows) {
      std::vector<std::string> cells;
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (!timing_column(table->columns[c])) {
          cells.push_back(row[c].render());
        }
      }
      rows.push_back(std::move(cells));
    }
    return rows;
  };
  const auto all = sweep_rows(from_one);
  const auto tail = sweep_rows(from_two);
  ASSERT_EQ(all.size(), 3u);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].front(), "2");
  EXPECT_EQ(tail[0], all[1]);
  EXPECT_EQ(tail[1], all[2]);

  ScenarioSpec inverted = from_one;
  inverted.support_min = 4;
  EXPECT_THROW((void)run_scenario(inverted), std::invalid_argument);
}

/// Every golden's cold cache report on a fresh in-memory store: memoized
/// cells in all, retrained, served from the cache, and contexts touched.
struct GoldenCacheReport {
  const char* name;
  std::size_t total;
  std::size_t retrained;
  std::size_t hits;
  std::size_t shards;
};
constexpr GoldenCacheReport kGoldenCacheReports[] = {
    {"defense_ablation", 16, 16, 0, 1}, {"fig1", 5, 5, 0, 1},
    {"nsweep", 27, 23, 4, 1},           {"prop1", 4, 4, 0, 1},
    {"solver_ablation", 4, 4, 0, 1},    {"sweep_grid", 24, 24, 0, 6},
    {"table1", 24, 22, 2, 1},           {"transfer", 80, 76, 4, 4}};

class GoldenCacheReportTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenCacheReportTest, ColdThenWarmOnAFreshStore) {
  // The accounting guard for every memoized cell family (baselines,
  // sweep, mixed-eval and ablation cells, Algorithm 1 solutions): the
  // counts do not depend on the executor width, a warm run serves every
  // cell, and each cell the report counts as retrained is one
  // obs.cache.retrains.
  runtime::Executor exec(GetParam());
  const obs::Counter& retrains = obs::counter("obs.cache.retrains");
  std::size_t checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(PG_GOLDEN_DIR)) {
    if (entry.path().extension() != ".spec") continue;
    const std::string name = entry.path().stem().string();
    const auto* want = std::find_if(
        std::begin(kGoldenCacheReports), std::end(kGoldenCacheReports),
        [&name](const GoldenCacheReport& r) { return name == r.name; });
    if (want == std::end(kGoldenCacheReports)) {
      ADD_FAILURE() << "no pinned cache report for golden " << name;
      continue;
    }
    ++checked;
    ShardStore store(/*memo=*/true, /*dir=*/"", /*max_bytes=*/0);
    EngineContext context{&exec, &store};
    const ScenarioSpec spec = golden_spec(name);

    std::uint64_t before = retrains.value();
    const CacheReport cold = run_scenario(spec, context).cache;
    EXPECT_EQ(cold.cells_total, want->total) << name;
    EXPECT_EQ(cold.cells_retrained, want->retrained) << name;
    EXPECT_EQ(cold.cache_hits, want->hits) << name;
    EXPECT_EQ(cold.shards, want->shards) << name;
    if (kObs) EXPECT_EQ(retrains.value() - before, cold.cells_retrained);

    before = retrains.value();
    const CacheReport warm = run_scenario(spec, context).cache;
    EXPECT_EQ(warm.cells_total, want->total) << name;
    EXPECT_EQ(warm.cells_retrained, 0u) << name;
    EXPECT_EQ(warm.cache_hits, warm.cells_total) << name;
    EXPECT_EQ(warm.shards, want->shards) << name;
    if (kObs) EXPECT_EQ(retrains.value() - before, 0u) << name;
  }
  EXPECT_EQ(checked, std::size(kGoldenCacheReports));
}

INSTANTIATE_TEST_SUITE_P(
    Executor, GoldenCacheReportTest, ::testing::Values(1, 4),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "threads" + std::to_string(info.param);
    });

/// Spec keys that say how a run executes or what it reports about
/// itself, never what it computes.
bool is_envelope_key(const std::string& key) {
  return key == "name" || key == "description" || key == "kind" ||
         key == "threads" || key.starts_with("cache_") ||
         key == "use_cache" || key == "trace" || key == "metrics" ||
         key == "telemetry" || key == "sweep";
}

/// Another value for a spec key, by the type its text shows: a bool
/// flips, an integer grows by one, a real shrinks by a tenth and a list
/// drops its last item. A word or an empty string takes the first listed
/// alternative that differs. nullopt: no rule fits the key.
std::optional<std::string> perturb(const std::string& key,
                                   const std::string& text) {
  if (text == "true") return "false";
  if (text == "false") return "true";
  if (!text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
      })) {
    return std::to_string(std::stoull(text) + 1);
  }
  char* end = nullptr;
  const double real = std::strtod(text.c_str(), &end);
  if (!text.empty() && *end == '\0') {
    return util::format_double_roundtrip(real * 0.9);
  }
  if (const std::size_t comma = text.rfind(','); comma != std::string::npos) {
    return text.substr(0, comma);
  }
  static const std::map<std::string, std::vector<std::string>> kWords = {
      {"aggregate", {"seed"}}, {"lp_pricing", {"bland", "dantzig"}}};
  if (const auto it = kWords.find(key); it != kWords.end()) {
    for (const std::string& word : it->second) {
      if (word != text) return word;
    }
  }
  return std::nullopt;
}

/// The comparable cells of a run, or nullopt when the run rejects its
/// spec.
std::optional<std::vector<std::string>> cells_or_rejected(
    const ScenarioSpec& spec, EngineContext& context) {
  try {
    return comparable_cells(run_scenario(spec, context));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

TEST(CacheKeyTest, WarmEqualsColdForEveryResultKey) {
  // Cache keys must hash everything a value depends on. For one golden
  // per paper kind, every result-bearing spec key is perturbed; run warm
  // on a store filled by the unperturbed spec, the perturbed spec must
  // give exactly its uncached result. A key added to the spec is covered
  // without editing this test, or fails it until perturb() has a rule.
  runtime::Executor exec(4);
  ShardStore uncached(/*memo=*/false, /*dir=*/"", /*max_bytes=*/0);
  EngineContext cold_context{&exec, &uncached};
  for (const char* name : {"fig1", "table1", "prop1", "nsweep", "transfer",
                           "solver_ablation", "defense_ablation"}) {
    ScenarioSpec base = golden_spec(name);
    // Tiny sizes keep 7 kinds x 19 keys near two seconds.
    for (const auto& [key, value] :
         {std::pair<const char*, const char*>{"instances", "160"},
          {"epochs", "4"}, {"sweep_steps", "3"}, {"draws", "1"},
          {"support_min", "1"}, {"support_max", "2"},
          {"solver_grid", "24"}, {"solver_iterations", "200"}}) {
      base.set(key, value);
    }
    ShardStore store(/*memo=*/true, /*dir=*/"", /*max_bytes=*/0);
    EngineContext warm_context{&exec, &store};
    (void)run_scenario(base, warm_context);
    const auto base_cold = cells_or_rejected(base, cold_context);
    ASSERT_TRUE(base_cold.has_value()) << name;

    for (const std::string& key : ScenarioSpec::keys()) {
      if (is_envelope_key(key)) continue;
      const std::optional<std::string> text = perturb(key, base.get(key));
      if (!text) {
        ADD_FAILURE() << "no perturbation for spec key " << key << " = '"
                      << base.get(key) << "'";
        continue;
      }
      ScenarioSpec spec = base;
      spec.set(key, *text);
      const std::string what = std::string(name) + ": " + key + " = " + *text;
      const auto cold = cells_or_rejected(spec, cold_context);
      // A result the perturbation did not move cannot differ warm.
      if (cold == base_cold) continue;
      const auto warm = cells_or_rejected(spec, warm_context);
      EXPECT_EQ(warm.has_value(), cold.has_value())
          << what << ": only one of the warm and cold runs rejected it";
      if (warm && cold && *warm != *cold) {
        const auto [w, c] = std::mismatch(warm->begin(), warm->end(),
                                          cold->begin(), cold->end());
        ADD_FAILURE() << what << ": warm "
                      << (w == warm->end() ? "(end)" : *w) << " != cold "
                      << (c == cold->end() ? "(end)" : *c);
      }
    }
  }
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
  /// A file of `bytes` zero bytes that takes no disk space.
  std::string sparse_file(const std::string& name, std::uintmax_t bytes) {
    const std::string path = write(name, "");
    std::filesystem::resize_file(path, bytes);
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
  EXPECT_EQ(err3.str(), "error: cannot read " + dir_ + "/nope.json\n");
  const std::string junk = write("junk.json", "not json at all");
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, junk}), out3, err3), 1);
  const std::string deep = write("deep.json", std::string(2'000'000, '['));
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, deep}), out3, err3), 1);
  EXPECT_NE(err3.str().find("nesting deeper than"), std::string::npos)
      << err3.str();

  // A sparse file one byte over the input cap: one error line naming the
  // file and the cap. At the cap it is read, and fails to parse.
  const std::string huge = sparse_file("huge.json", kMaxInputBytes + 1);
  std::ostringstream err4;
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, huge}), out3, err4), 1);
  const std::string over = err4.str();
  EXPECT_NE(over.find(huge + " is larger than the 64 MiB input cap"),
            std::string::npos)
      << over;
  EXPECT_EQ(std::count(over.begin(), over.end(), '\n'), 1) << over;
  const std::string at_cap = sparse_file("at_cap.json", kMaxInputBytes);
  std::ostringstream err5;
  EXPECT_EQ(run_cli(parse_cli({"--compare", a, at_cap}), out3, err5), 1);
  EXPECT_EQ(err5.str().find("input cap"), std::string::npos) << err5.str();
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

// ------------------------------------------------------ sweep coordinates

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

}  // namespace
}  // namespace pg::scenario
