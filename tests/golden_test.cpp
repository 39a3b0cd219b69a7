// Golden-baseline regression suite: every registry scenario (plus one
// two-axis sweep grid) runs at a tiny seed-pinned size and its result is
// diffed against the committed JSON baseline in tests/golden/ through
// scenario::ResultDiff -- the same differ `pg_run --compare` uses, at
// the same tight tolerance the CI regression job applies.
//
// The committed artifacts are pairs:
//     tests/golden/<name>.spec   fully-pinned ScenarioSpec text
//     tests/golden/<name>.json   the JSON sink of running that spec
//
// A failure here means the reproduced numbers moved. If the change is
// intentional (an algorithm fix, a new metric), refresh the baseline:
//
//     pg_run --spec tests/golden/<name>.spec --out json --out-file new.json
//     pg_run --compare tests/golden/<name>.json new.json --update-baseline
//
// Timing values (_ms/_seconds), executor width, and cache traffic are
// excluded by the differ, so the comparison covers exactly the surface
// the engine guarantees to be deterministic. The tolerance absorbs
// libm/codegen ulp differences across build environments; on any single
// machine the runs are bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/diff.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "scenario/result.h"
#include "scenario/spec.h"

#ifndef PG_GOLDEN_DIR
#error "PG_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif

namespace pg::scenario {
namespace {

constexpr double kTolerance = 1e-6;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::filesystem::path> golden_specs() {
  std::vector<std::filesystem::path> specs;
  for (const auto& entry :
       std::filesystem::directory_iterator(PG_GOLDEN_DIR)) {
    if (entry.path().extension() == ".spec") specs.push_back(entry.path());
  }
  std::sort(specs.begin(), specs.end());
  return specs;
}

TEST(GoldenTest, EveryRegistryScenarioHasABaseline) {
  std::set<std::string> covered;
  for (const auto& spec_path : golden_specs()) {
    const ScenarioSpec spec = ScenarioSpec::parse(read_file(spec_path));
    covered.insert(spec.name);
    // The committed pair must be complete.
    std::filesystem::path json_path = spec_path;
    json_path.replace_extension(".json");
    EXPECT_TRUE(std::filesystem::exists(json_path))
        << "baseline missing for " << spec_path;
  }
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    EXPECT_TRUE(covered.count(name) == 1)
        << "registry scenario '" << name << "' has no golden baseline";
  }
}

TEST(GoldenTest, ResultsMatchCommittedBaselines) {
  const auto specs = golden_specs();
  ASSERT_FALSE(specs.empty()) << "no .spec files under " << PG_GOLDEN_DIR;
  for (const auto& spec_path : specs) {
    SCOPED_TRACE(spec_path.filename().string());
    const ScenarioSpec spec = ScenarioSpec::parse(read_file(spec_path));
    const ScenarioResult result = run_scenario(spec);
    std::ostringstream json;
    write_json(result, json);

    std::filesystem::path json_path = spec_path;
    json_path.replace_extension(".json");
    const JsonValue baseline = parse_json(read_file(json_path));
    const JsonValue candidate = parse_json(json.str());

    DiffOptions options;
    options.tolerance = kTolerance;
    const ResultDiff diff = diff_results(baseline, candidate, options);
    std::ostringstream report;
    write_diff_report(diff, options, report);
    EXPECT_TRUE(diff.clean())
        << "golden drift for " << spec.name << ":\n"
        << report.str()
        << "(intentional? refresh with pg_run --compare "
        << json_path.string() << " <new.json> --update-baseline)";
  }
}

}  // namespace
}  // namespace pg::scenario
