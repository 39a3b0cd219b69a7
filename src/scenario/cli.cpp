#include "scenario/cli.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "la/simd.h"
#include "robust/atomic_file.h"
#include "robust/faultpoint.h"
#include "scenario/diff.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "scenario/request.h"
#include "scenario/result.h"
#include "util/error.h"
#include "util/table.h"

namespace pg::scenario {

namespace {

std::string flag_value(const std::vector<std::string>& args, std::size_t& i,
                       const std::string& flag) {
  PG_CHECK(i + 1 < args.size(), flag + " requires a value");
  return args[++i];
}

/// Fail fast on an unwritable output path, BEFORE the run: opening for
/// append creates the file if missing but leaves existing content alone,
/// so probing costs nothing and a hours-long sweep cannot die at the
/// write-out step (mirroring the unwritable-cache-dir degradation
/// contract -- except outputs are the point of the run, so this is a
/// hard error, not a downgrade).
void ensure_writable(const std::string& path, const std::string& what) {
  // Probe in append mode (never clobbers existing bytes), and remove the
  // probe file again when it did not exist before: a failed run must not
  // leave a zero-byte artifact that reads as a torn write -- the final
  // path appears only via atomic_write_file's rename.
  const bool existed = std::filesystem::exists(path);
  std::ofstream probe(path, std::ios::app);
  PG_CHECK(static_cast<bool>(probe),
           "cannot write " + what + ": " + path);
  probe.close();
  if (!existed) std::filesystem::remove(path);
}

/// `pg_run --compare baseline candidate`: structured regression diff.
/// Exit 0 when every aligned value is within tolerance, 1 on drift or
/// shape changes -- unless --update-baseline, which accepts the
/// candidate by overwriting the baseline file and exits 0.
int run_compare(const CliOptions& options, std::ostream& out,
                std::ostream& err) {
  const std::string baseline_text = read_file(options.compare_baseline);
  const JsonValue baseline = parse_json(baseline_text);
  const JsonValue candidate = parse_json(read_file(options.compare_candidate));

  DiffOptions diff_options;
  diff_options.tolerance = options.tolerance;
  diff_options.ignore_telemetry = !options.with_telemetry;
  const ResultDiff diff = diff_results(baseline, candidate, diff_options);

  out << "comparing " << options.compare_baseline << " (baseline) vs "
      << options.compare_candidate << " (candidate)\n";
  write_diff_report(diff, diff_options, out);
  if (diff.clean()) return 0;

  if (options.update_baseline) {
    std::ofstream file(options.compare_baseline,
                       std::ios::binary | std::ios::trunc);
    PG_CHECK(static_cast<bool>(file),
             "cannot rewrite baseline " + options.compare_baseline);
    file << read_file(options.compare_candidate);
    PG_CHECK(static_cast<bool>(file),
             "short write updating " + options.compare_baseline);
    out << "baseline updated: " << options.compare_baseline << " now matches "
        << options.compare_candidate << "\n";
    return 0;
  }
  err << "error: results differ past tolerance (see report above)\n";
  return 1;
}

}  // namespace

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--print-spec") {
      options.print_spec = true;
    } else if (arg == "--scenario") {
      options.scenario = flag_value(args, i, arg);
    } else if (arg == "--spec") {
      options.spec_file = flag_value(args, i, arg);
    } else if (arg == "--set") {
      const std::string kv = flag_value(args, i, arg);
      const std::size_t eq = kv.find('=');
      PG_CHECK(eq != std::string::npos && eq > 0,
               "--set expects key=value, got '" + kv + "'");
      options.overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--sweep") {
      // Appends one grid axis; see CliOptions for the "sweep+" marker.
      options.overrides.emplace_back("sweep+", flag_value(args, i, arg));
    } else if (arg == "--compare") {
      options.compare = true;
      options.compare_baseline = flag_value(args, i, arg);
      options.compare_candidate = flag_value(args, i, "--compare <baseline>");
    } else if (arg == "--tolerance") {
      const std::string value = flag_value(args, i, arg);
      char* end = nullptr;
      options.tolerance = std::strtod(value.c_str(), &end);
      PG_CHECK(!value.empty() && end != nullptr && *end == '\0' &&
                   options.tolerance >= 0.0,
               "--tolerance expects a non-negative number, got '" + value +
                   "'");
    } else if (arg == "--update-baseline") {
      options.update_baseline = true;
    } else if (arg == "--with-telemetry") {
      options.with_telemetry = true;
    } else if (arg == "--cache-max-bytes") {
      options.overrides.emplace_back("cache_max_bytes",
                                     flag_value(args, i, arg));
    } else if (arg == "--threads") {
      options.overrides.emplace_back("threads", flag_value(args, i, arg));
    } else if (arg == "--cache-dir") {
      options.overrides.emplace_back("cache_dir", flag_value(args, i, arg));
    } else if (arg == "--no-cache") {
      options.overrides.emplace_back("use_cache", "false");
    } else if (arg == "--out") {
      options.out_format = flag_value(args, i, arg);
    } else if (arg == "--out-file") {
      options.out_file = flag_value(args, i, arg);
    } else if (arg == "--trace") {
      options.overrides.emplace_back("trace", flag_value(args, i, arg));
    } else if (arg == "--metrics-out") {
      options.metrics_out = flag_value(args, i, arg);
      options.overrides.emplace_back("metrics", "true");
    } else if (arg == "--fault") {
      options.faults.push_back(flag_value(args, i, arg));
      robust::validate(options.faults.back(), arg);
    } else {
      PG_CHECK(false, "unknown argument: " + arg +
                          " (pg_run --help lists the options)");
    }
  }
  PG_CHECK(options.scenario.empty() || options.spec_file.empty(),
           "--scenario and --spec are mutually exclusive");
  PG_CHECK(!options.compare ||
               (options.scenario.empty() && options.spec_file.empty()),
           "--compare does not combine with --scenario/--spec");
  PG_CHECK(options.compare || !options.update_baseline,
           "--update-baseline only applies to --compare");
  PG_CHECK(options.out_format == "text" || options.out_format == "json" ||
               options.out_format == "csv",
           "--out expects json, csv, or text");
  return options;
}

std::string cli_usage() {
  return
      "pg_run -- unified scenario driver for the poisongame reproduction\n"
      "\n"
      "usage:\n"
      "  pg_run --list                      show the scenario catalog\n"
      "  pg_run --scenario <name> [opts]    run a registered scenario\n"
      "  pg_run --spec <file> [opts]        run a key=value spec file\n"
      "  pg_run --compare A.json B.json     diff two JSON result artifacts\n"
      "\n"
      "run options:\n"
      "  --set key=value   override one spec field (repeatable, last wins)\n"
      "  --sweep CLAUSE    add a grid axis: key=lo..hi[:steps] (steps\n"
      "                    default 5) or key=v1,v2,... (repeatable; the\n"
      "                    run becomes the cross product of all axes,\n"
      "                    merged into one result)\n"
      "  --threads N       executor width (0 = all cores, 1 = serial)\n"
      "  --cache-dir DIR   payoff disk-cache directory (default $PG_CACHE_DIR)\n"
      "  --cache-max-bytes N  evict oldest disk-cache shards past N bytes\n"
      "  --no-cache        disable payoff memoization entirely\n"
      "  --out FORMAT      json | csv | text (default text)\n"
      "  --out-file PATH   write the sink there instead of stdout\n"
      "  --trace PATH      record a Chrome Trace Event JSON of the run\n"
      "                    (open in chrome://tracing or Perfetto)\n"
      "  --metrics-out PATH  write the run's counter/timer snapshot as\n"
      "                    JSON (implies --set metrics=true)\n"
      "  --fault SPEC      arm one deterministic fault-injection rule\n"
      "                    (repeatable; flags replace $PG_FAULTS). Grammar:\n"
      "                    site[arg]:action[@trigger], e.g.\n"
      "                    'cache.store:short-write' or\n"
      "                    'artifact.out:crash' -- see\n"
      "                    src/robust/faultpoint.h\n"
      "  --print-spec      print the resolved spec and exit\n"
      "\n"
      "compare options (regression triage; exits 1 past tolerance):\n"
      "  --tolerance T       accept |a-b| <= T or relative delta <= T\n"
      "  --update-baseline   overwrite A.json with B.json when they differ\n"
      "  --with-telemetry    also compare telemetry* tables and obs.*\n"
      "                    metric keys (skipped by default)\n"
      "\n"
      "A run is the registry spec or the --spec file, then each --set in\n"
      "order (last wins).\n";
}

int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  try {
    if (!options.faults.empty()) {
      // --fault flags REPLACE any $PG_FAULTS table (flags win, like
      // every other env/flag pair in this CLI).
      std::string joined;
      for (const std::string& entry : options.faults) {
        if (!joined.empty()) joined += ',';
        joined += entry;
      }
      robust::configure(joined);
    }
    if (options.help) {
      out << cli_usage();
      return 0;
    }
    if (options.list) {
      util::TextTable table({"scenario", "kind", "description"});
      for (const ScenarioSpec& e : ScenarioRegistry::instance().entries()) {
        table.add_row({e.name, e.kind, e.description});
      }
      out << table.str();
      return 0;
    }

    if (options.compare) {
      return run_compare(options, out, err);
    }

    PG_CHECK(!options.scenario.empty() || !options.spec_file.empty(),
             "nothing to run: pass --list, --scenario, --spec, or "
             "--compare\n" +
                 cli_usage());
    // Resolution (name/spec-text + overrides -> runnable spec) lives in
    // RequestOptions so pg_serve requests follow the exact same
    // precedence rules as this CLI.
    RequestOptions request;
    request.scenario = options.scenario;
    if (!options.spec_file.empty()) {
      request.spec_text = read_file(options.spec_file);
    }
    request.overrides = options.overrides;
    ScenarioSpec spec = request.resolve();

    if (options.print_spec) {
      out << spec.to_text();
      // Surface the host's vector ISA alongside the resolved spec.
      out << "# simd: detected=" << la::simd::tier_name(la::simd::detect_tier())
          << "\n";
      return 0;
    }

    // Probe every output path BEFORE the run: a typo'd --out-file/--trace/
    // --metrics-out must be a one-line error now, not a dead artifact
    // after minutes of compute.
    if (!options.out_file.empty()) {
      ensure_writable(options.out_file, "output file");
    }
    if (!spec.trace.empty()) ensure_writable(spec.trace, "trace file");
    if (!options.metrics_out.empty()) {
      ensure_writable(options.metrics_out, "metrics file");
    }

    const ScenarioResult result = run_scenario(spec);
    if (!options.out_file.empty()) {
      std::ostringstream sink;
      write_result(result, options.out_format, sink);
      robust::atomic_write_file(options.out_file, sink.str(), "artifact.out");
      out << "wrote " << options.out_file << "\n";
    } else {
      write_result(result, options.out_format, out);
    }
    if (!options.metrics_out.empty()) {
      std::ostringstream sink;
      write_metrics_json(result.spec.name, sink);
      robust::atomic_write_file(options.metrics_out, sink.str(),
                                "artifact.metrics");
      out << "wrote " << options.metrics_out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace pg::scenario
