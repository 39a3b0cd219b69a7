#include "scenario/result.h"

#include <cmath>
#include <cstdlib>
#include <ostream>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

namespace pg::scenario {

namespace {

using util::json_escape;

/// util::format_double_roundtrip (shortest lossless decimal) extended
/// with the non-finite spellings the sinks need.
std::string format_number(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  return util::format_double_roundtrip(v);
}

void write_json_value(const Value& v, std::ostream& out) {
  if (v.is_number()) {
    // JSON has no nan/inf literal; null is the conventional stand-in.
    if (std::isnan(v.number()) || std::isinf(v.number())) {
      out << "null";
    } else {
      out << format_number(v.number());
    }
  } else {
    out << '"' << json_escape(v.text()) << '"';
  }
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

std::string Value::render() const {
  return is_number_ ? format_number(number_) : text_;
}

void ResultTable::add_row(std::vector<Value> row) {
  PG_CHECK(row.size() == columns.size(),
           "ResultTable " + name + ": row width mismatch");
  rows.push_back(std::move(row));
}

void write_json(const ScenarioResult& result, std::ostream& out) {
  out << "{\n";
  // Contract for downstream tooling (CI artifacts, cross-PR perf
  // trajectories): the member set at each version only GROWS -- a bump
  // means a member was renamed, retyped, or removed, so stored artifacts
  // from different versions must not be compared blindly. pg_run
  // --compare ignores members it does not align, so adding fields never
  // breaks old baselines. serve::kSchemaVersion is the ONE number shared
  // by every JSON artifact the project emits (results, metrics
  // snapshots, response envelopes).
  out << "  \"schema_version\": " << serve::kSchemaVersion << ",\n";
  out << "  \"scenario\": \"" << json_escape(result.spec.name) << "\",\n";
  out << "  \"kind\": \"" << json_escape(result.spec.kind) << "\",\n";
  out << "  \"description\": \"" << json_escape(result.spec.description)
      << "\",\n";
  out << "  \"threads\": " << result.executor_threads << ",\n";
  out << "  \"elapsed_seconds\": " << format_number(result.elapsed_seconds)
      << ",\n";
  out << "  \"sweep_axes\": [";
  for (std::size_t i = 0; i < result.sweep_axes.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << json_escape(result.sweep_axes[i]) << '"';
  }
  out << "],\n";
  out << "  \"cache\": {\"enabled\": "
      << (result.cache.enabled ? "true" : "false")
      << ", \"disk_enabled\": " << (result.cache.disk_enabled ? "true" : "false")
      << ", \"disk_dir\": \"" << json_escape(result.cache.disk_dir) << "\""
      << ", \"shards\": " << result.cache.shards
      << ", \"cells_total\": " << result.cache.cells_total
      << ", \"cells_retrained\": " << result.cache.cells_retrained
      << ", \"cache_hits\": " << result.cache.cache_hits
      << ", \"disk_entries_loaded\": " << result.cache.disk_entries_loaded
      << ", \"disk_entries_saved\": " << result.cache.disk_entries_saved
      << ", \"disk_max_bytes\": " << result.cache.disk_max_bytes
      << ", \"disk_shards_evicted\": " << result.cache.disk_shards_evicted
      << "},\n";
  out << "  \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << json_escape(result.metrics[i].first) << "\": ";
    write_json_value(result.metrics[i].second, out);
  }
  out << "},\n";
  out << "  \"tables\": [";
  for (std::size_t t = 0; t < result.tables.size(); ++t) {
    const ResultTable& table = result.tables[t];
    if (t > 0) out << ",";
    out << "\n    {\"name\": \"" << json_escape(table.name)
        << "\", \"columns\": [";
    for (std::size_t c = 0; c < table.columns.size(); ++c) {
      if (c > 0) out << ", ";
      out << '"' << json_escape(table.columns[c]) << '"';
    }
    out << "], \"rows\": [";
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      if (r > 0) out << ", ";
      out << "[";
      for (std::size_t c = 0; c < table.rows[r].size(); ++c) {
        if (c > 0) out << ", ";
        write_json_value(table.rows[r][c], out);
      }
      out << "]";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
}

void write_csv(const ScenarioResult& result, std::ostream& out) {
  out << "# scenario," << csv_escape(result.spec.name) << "\n";
  if (!result.sweep_axes.empty()) {
    out << "# sweep_axes";
    for (const std::string& axis : result.sweep_axes) {
      out << "," << csv_escape(axis);
    }
    out << "\n";
  }
  out << "metric,value\n";
  out << "threads," << result.executor_threads << "\n";
  out << "elapsed_seconds," << format_number(result.elapsed_seconds) << "\n";
  out << "cells_total," << result.cache.cells_total << "\n";
  out << "cells_retrained," << result.cache.cells_retrained << "\n";
  out << "cache_hits," << result.cache.cache_hits << "\n";
  out << "disk_entries_loaded," << result.cache.disk_entries_loaded << "\n";
  out << "disk_entries_saved," << result.cache.disk_entries_saved << "\n";
  out << "disk_shards_evicted," << result.cache.disk_shards_evicted << "\n";
  for (const auto& [key, value] : result.metrics) {
    out << csv_escape(key) << "," << csv_escape(value.render()) << "\n";
  }
  for (const ResultTable& table : result.tables) {
    out << "\n# table," << csv_escape(table.name) << "\n";
    for (std::size_t c = 0; c < table.columns.size(); ++c) {
      if (c > 0) out << ",";
      out << csv_escape(table.columns[c]);
    }
    out << "\n";
    for (const auto& row : table.rows) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c > 0) out << ",";
        out << csv_escape(row[c].render());
      }
      out << "\n";
    }
  }
}

void write_text(const ScenarioResult& result, std::ostream& out) {
  out << "=== "
      << (result.spec.description.empty() ? result.spec.name
                                          : result.spec.description)
      << " ===\n";
  out << "scenario: " << result.spec.name << " (kind " << result.spec.kind
      << ")\n";
  out << "executor threads: " << result.executor_threads << "\n";
  if (!result.sweep_axes.empty()) {
    out << "sweep axes:";
    for (const std::string& axis : result.sweep_axes) out << " " << axis;
    out << "\n";
  }
  for (const auto& [key, value] : result.metrics) {
    out << key << ": " << value.render() << "\n";
  }
  for (const ResultTable& table : result.tables) {
    out << "\n--- " << table.name << " ---\n";
    util::TextTable text_table(table.columns);
    for (const auto& row : table.rows) {
      std::vector<std::string> cells;
      cells.reserve(row.size());
      for (const Value& v : row) cells.push_back(v.render());
      text_table.add_row(std::move(cells));
    }
    out << text_table.str();
  }
  if (result.cache.enabled) {
    out << "\npayoff cache: " << result.cache.cells_retrained
        << " cells retrained, " << result.cache.cache_hits
        << " served from cache";
    if (result.cache.disk_enabled) {
      out << ", " << result.cache.disk_entries_loaded
          << " entries loaded from disk (" << result.cache.disk_dir << ")";
      if (result.cache.disk_shards_evicted > 0) {
        out << ", " << result.cache.disk_shards_evicted
            << " shard(s) evicted to fit " << result.cache.disk_max_bytes
            << " bytes";
      }
    }
    out << "\n";
  }
  out << "\nelapsed: " << util::format_double(result.elapsed_seconds, 1)
      << "s\n";
}

void append_metrics_tables(ScenarioResult& result) {
  const auto snapshot = obs::snapshot_metrics();
  ResultTable counters{"telemetry_counters", {"metric", "value"}, {}};
  ResultTable timers{
      "telemetry_timers",
      {"metric", "count", "total_ms", "mean_ms", "min_ms", "max_ms"},
      {}};
  for (const auto& m : snapshot) {
    if (m.kind == obs::MetricSnapshot::Kind::kTimer) {
      const double mean =
          m.count > 0 ? m.total_ms / static_cast<double>(m.count) : 0.0;
      timers.add_row(
          {m.name, m.count, m.total_ms, mean, m.min_ms, m.max_ms});
    } else {
      counters.add_row({m.name, m.count});
    }
  }
  result.tables.push_back(std::move(counters));
  result.tables.push_back(std::move(timers));
}

void write_metrics_json(const std::string& scenario, std::ostream& out) {
  const auto snapshot = obs::snapshot_metrics();
  out << "{\n  \"schema_version\": " << serve::kSchemaVersion << ",\n";
  out << "  \"scenario\": \"" << json_escape(scenario) << "\",\n";
  out << "  \"metrics\": [";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const auto& m = snapshot[i];
    const char* kind =
        m.kind == obs::MetricSnapshot::Kind::kTimer
            ? "timer"
            : (m.kind == obs::MetricSnapshot::Kind::kGauge ? "gauge"
                                                           : "counter");
    if (i > 0) out << ",";
    out << "\n    {\"name\": \"" << json_escape(m.name) << "\", \"kind\": \""
        << kind << "\", \"count\": " << m.count;
    if (m.kind == obs::MetricSnapshot::Kind::kTimer) {
      const double mean =
          m.count > 0 ? m.total_ms / static_cast<double>(m.count) : 0.0;
      out << ", \"total_ms\": " << format_number(m.total_ms)
          << ", \"mean_ms\": " << format_number(mean)
          << ", \"min_ms\": " << format_number(m.min_ms)
          << ", \"max_ms\": " << format_number(m.max_ms);
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

void write_result(const ScenarioResult& result, const std::string& format,
                  std::ostream& out) {
  if (format == "json") {
    write_json(result, out);
  } else if (format == "csv") {
    write_csv(result, out);
  } else if (format == "text") {
    write_text(result, out);
  } else {
    PG_CHECK(false, "unknown output format: " + format +
                        " (expected json, csv, or text)");
  }
}

}  // namespace pg::scenario
