#include "scenario/diff.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <ostream>
#include <utility>

#include "util/error.h"
#include "util/table.h"

namespace pg::scenario {

namespace {

// ------------------------------------------------------------ JSON reader

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    PG_CHECK(pos_ == text_.size(),
             "JSON: trailing garbage at byte " + std::to_string(pos_));
    return value;
  }

 private:
  void fail(const std::string& what) const {
    PG_CHECK(false, "JSON: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{':
      case '[': {
        // Each nesting level is one recursion here (and one more when the
        // value is destroyed), so unbounded input depth would overflow
        // the stack instead of failing.
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.text = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        v.kind = JsonValue::Kind::kNull;
        return v;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The sink only emits \u00XX control escapes; encode as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double parsed = std::strtod(start, &end);
    if (end == start) fail("expected a value");
    pos_ += static_cast<std::size_t>(end - start);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = parsed;
    return v;
  }

  /// Array/object nesting limit: far above the 6 levels the engine's own
  /// artifacts use, far below what the stack can recurse.
  static constexpr std::size_t kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

// --------------------------------------------------------- diff machinery

bool timing_name(const std::string& name) {
  const auto ends_with = [&name](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  // "speedup" columns are ratios of wall-clock times -- just as
  // nondeterministic as the timings themselves.
  return ends_with("_ms") || ends_with("_seconds") ||
         name.find("speedup") != std::string::npos;
}

/// Telemetry tables (`telemetry`, `telemetry_counters`, `telemetry_timers`)
/// hold scheduling-dependent observability data -- excluded from gating
/// unless --with-telemetry.
bool telemetry_table_name(const std::string& name) {
  return name.rfind("telemetry", 0) == 0;
}

/// Registry metric keys are namespaced `obs.`; their values (chunk
/// counts, cache traffic, span timings) vary run to run by design.
bool telemetry_metric_name(const std::string& name) {
  return name.rfind("obs.", 0) == 0;
}

std::string render(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kString: return v.text;
    case JsonValue::Kind::kNumber:
      if (std::isnan(v.number)) return "nan";
      if (std::isinf(v.number)) return v.number > 0 ? "inf" : "-inf";
      return util::format_double_roundtrip(v.number);
    case JsonValue::Kind::kArray: return "<array>";
    case JsonValue::Kind::kObject: return "<object>";
  }
  return "<?>";
}

class Differ {
 public:
  Differ(const DiffOptions& options, ResultDiff& diff)
      : options_(options), diff_(diff) {}

  /// Top-level artifact: a single run (has "scenario") or name -> run.
  /// Either side may be a pg_serve response ENVELOPE
  /// ({status, request_id, result: <run>}): an ok envelope is unwrapped
  /// to its result, so a served artifact diffs directly against a
  /// pg_run baseline; an error envelope has no result to compare and is
  /// rejected with its own message.
  void compare_artifact(const JsonValue& a_raw, const JsonValue& b_raw) {
    const JsonValue& a = unwrap_envelope(a_raw, "baseline");
    const JsonValue& b = unwrap_envelope(b_raw, "candidate");
    PG_CHECK(a.kind == JsonValue::Kind::kObject &&
                 b.kind == JsonValue::Kind::kObject,
             "--compare inputs must be JSON objects written by the JSON "
             "result sink");
    const bool a_single = a.find("scenario") != nullptr;
    const bool b_single = b.find("scenario") != nullptr;
    if (a_single || b_single) {
      PG_CHECK(a_single && b_single,
               "--compare inputs disagree: one is a single run, the other "
               "a merged artifact");
      const JsonValue* name = a.find("scenario");
      compare_run(name->kind == JsonValue::Kind::kString ? name->text : "run",
                  a, b);
      return;
    }
    // Merged artifact: align runs by member name.
    for (const auto& [name, run] : a.members) {
      const JsonValue* other = b.find(name);
      if (other == nullptr) {
        add(DiffKind::kMissing, name, "<run>", "");
        continue;
      }
      compare_run(name, run, *other);
    }
    for (const auto& [name, run] : b.members) {
      (void)run;
      if (a.find(name) == nullptr) add(DiffKind::kExtra, name, "", "<run>");
    }
  }

 private:
  static const JsonValue& unwrap_envelope(const JsonValue& v,
                                          const char* side) {
    if (v.kind != JsonValue::Kind::kObject) return v;
    const JsonValue* status = v.find("status");
    if (status == nullptr || v.find("request_id") == nullptr) return v;
    PG_CHECK(status->kind == JsonValue::Kind::kString && status->text == "ok",
             std::string("--compare ") + side +
                 " is an ERROR response envelope (status=" +
                 (status->kind == JsonValue::Kind::kString ? status->text
                                                           : "<non-string>") +
                 "); nothing to compare");
    const JsonValue* result = v.find("result");
    PG_CHECK(result != nullptr, std::string("--compare ") + side +
                                    " envelope has no \"result\" member");
    return *result;
  }

  void add(DiffKind kind, std::string location, std::string baseline,
           std::string candidate) {
    diff_.entries.push_back(
        {kind, std::move(location), std::move(baseline), std::move(candidate),
         false, 0.0, 0.0});
  }

  /// Leaf comparison: numbers under tolerance, everything else exact.
  void compare_value(const std::string& location, const JsonValue& a,
                     const JsonValue& b) {
    ++diff_.values_compared;
    if (a.kind == JsonValue::Kind::kNumber &&
        b.kind == JsonValue::Kind::kNumber) {
      const double x = a.number;
      const double y = b.number;
      const bool both_nan = std::isnan(x) && std::isnan(y);
      if (both_nan || x == y) {
        ++diff_.values_matched;
        return;
      }
      const double abs_delta = std::abs(x - y);
      const double rel_delta =
          abs_delta / std::max(std::abs(x), std::abs(y));
      if (!std::isnan(abs_delta) && (abs_delta <= options_.tolerance ||
                                     rel_delta <= options_.tolerance)) {
        ++diff_.values_matched;
        return;
      }
      diff_.entries.push_back({DiffKind::kDrift, location, render(a),
                               render(b), true, abs_delta, rel_delta});
      return;
    }
    if (a.kind == b.kind && render(a) == render(b)) {
      ++diff_.values_matched;
      return;
    }
    add(DiffKind::kDrift, location, render(a), render(b));
  }

  void compare_run(const std::string& run, const JsonValue& a,
                   const JsonValue& b) {
    // Stable identity fields; description/threads/elapsed/cache traffic
    // are presentation or wall-clock state, not results.
    for (const char* key : {"scenario", "kind"}) {
      const JsonValue* x = a.find(key);
      const JsonValue* y = b.find(key);
      if (x != nullptr && y != nullptr) {
        compare_value(run + "/" + key, *x, *y);
      }
    }

    // Sweep axis columns (from the baseline) drive row alignment below.
    std::vector<std::string> axes;
    if (const JsonValue* ax = a.find("sweep_axes");
        ax != nullptr && ax->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& item : ax->items) {
        if (item.kind == JsonValue::Kind::kString) axes.push_back(item.text);
      }
    }

    compare_metrics(run, a.find("metrics"), b.find("metrics"));
    compare_tables(run, axes, a.find("tables"), b.find("tables"));
  }

  void compare_metrics(const std::string& run, const JsonValue* a,
                       const JsonValue* b) {
    if (a == nullptr || b == nullptr ||
        a->kind != JsonValue::Kind::kObject ||
        b->kind != JsonValue::Kind::kObject) {
      if (a != nullptr || b != nullptr) {
        add(DiffKind::kShape, run + "/metrics", a ? render(*a) : "",
            b ? render(*b) : "");
      }
      return;
    }
    for (const auto& [key, value] : a->members) {
      if (timing_name(key)) continue;
      if (options_.ignore_telemetry && telemetry_metric_name(key)) continue;
      const JsonValue* other = b->find(key);
      if (other == nullptr) {
        add(DiffKind::kMissing, run + "/metrics/" + key, render(value), "");
        continue;
      }
      compare_value(run + "/metrics/" + key, value, *other);
    }
    for (const auto& [key, value] : b->members) {
      if (timing_name(key)) continue;
      if (options_.ignore_telemetry && telemetry_metric_name(key)) continue;
      if (a->find(key) == nullptr) {
        add(DiffKind::kExtra, run + "/metrics/" + key, "", render(value));
      }
    }
  }

  /// Tables align by (name, occurrence-within-name), so duplicate names
  /// (a swept `kind` axis) still pair deterministically.
  void compare_tables(const std::string& run,
                      const std::vector<std::string>& axes, const JsonValue* a,
                      const JsonValue* b) {
    if (a == nullptr || b == nullptr || a->kind != JsonValue::Kind::kArray ||
        b->kind != JsonValue::Kind::kArray) {
      if (a != nullptr || b != nullptr) {
        add(DiffKind::kShape, run + "/tables", a ? render(*a) : "",
            b ? render(*b) : "");
      }
      return;
    }
    const auto table_key = [](const JsonValue& table,
                              std::map<std::string, std::size_t>& seen) {
      const JsonValue* name = table.find("name");
      std::string key =
          name != nullptr && name->kind == JsonValue::Kind::kString
              ? name->text
              : "<unnamed>";
      const std::size_t occurrence = seen[key]++;
      if (occurrence > 0) {
        key += '#';
        key += std::to_string(occurrence);
      }
      return key;
    };
    // Telemetry tables are dropped from BOTH sides before alignment (not
    // merely value-skipped): a metrics=true candidate against a plain
    // baseline must not report kExtra/kMissing for them.
    const auto skip_table = [this](const JsonValue& table) {
      if (!options_.ignore_telemetry) return false;
      const JsonValue* name = table.find("name");
      return name != nullptr && name->kind == JsonValue::Kind::kString &&
             telemetry_table_name(name->text);
    };
    std::map<std::string, const JsonValue*> b_tables;
    {
      std::map<std::string, std::size_t> seen;
      for (const JsonValue& table : b->items) {
        if (skip_table(table)) continue;
        b_tables.emplace(table_key(table, seen), &table);
      }
    }
    std::map<std::string, std::size_t> seen;
    for (const JsonValue& table : a->items) {
      if (skip_table(table)) continue;
      const std::string key = table_key(table, seen);
      const auto it = b_tables.find(key);
      if (it == b_tables.end()) {
        add(DiffKind::kMissing, run + "/" + key, "<table>", "");
        continue;
      }
      compare_table(run + "/" + key, axes, table, *it->second);
      b_tables.erase(it);
    }
    for (const auto& [key, table] : b_tables) {
      (void)table;
      add(DiffKind::kExtra, run + "/" + key, "", "<table>");
    }
  }

  /// A row's identity: first cell + sweep-axis cells + string cells.
  static std::string row_key(const std::vector<bool>& key_column,
                             const JsonValue& row) {
    std::string key;
    for (std::size_t c = 0; c < row.items.size(); ++c) {
      const JsonValue& cell = row.items[c];
      const bool keyed =
          c == 0 || (c < key_column.size() && key_column[c]) ||
          cell.kind == JsonValue::Kind::kString;
      if (!keyed) continue;
      key += render(cell);
      key += '\x1f';
    }
    return key;
  }

  void compare_table(const std::string& location,
                     const std::vector<std::string>& axes,
                     const JsonValue& a, const JsonValue& b) {
    // Columns must agree exactly; otherwise cell comparison is undefined.
    std::vector<std::string> columns;
    {
      const JsonValue* ca = a.find("columns");
      const JsonValue* cb = b.find("columns");
      std::string ra = ca ? "" : "<none>";
      std::string rb = cb ? "" : "<none>";
      if (ca != nullptr) {
        for (const JsonValue& c : ca->items) {
          columns.push_back(c.text);
          ra += (ra.empty() ? "" : ",") + c.text;
        }
      }
      if (cb != nullptr) {
        for (const JsonValue& c : cb->items) {
          rb += (rb.empty() ? "" : ",") + c.text;
        }
      }
      if (ra != rb) {
        add(DiffKind::kShape, location + "/columns", ra, rb);
        return;
      }
    }
    std::vector<bool> key_column(columns.size(), false);
    std::size_t metric_column = columns.size();
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (std::find(axes.begin(), axes.end(), columns[c]) != axes.end()) {
        key_column[c] = true;
      }
      if (columns[c] == "metric") metric_column = c;
    }

    const JsonValue* ra = a.find("rows");
    const JsonValue* rb = b.find("rows");
    if (ra == nullptr || rb == nullptr) {
      if (ra != rb) add(DiffKind::kShape, location + "/rows", "", "");
      return;
    }
    // Key every row; duplicates get an occurrence suffix, which also
    // makes an all-numeric, identical-key table align by row order.
    const auto keyed_rows = [&](const JsonValue& rows) {
      std::vector<std::pair<std::string, const JsonValue*>> out;
      std::map<std::string, std::size_t> seen;
      for (const JsonValue& row : rows.items) {
        std::string key = row_key(key_column, row);
        const std::size_t occurrence = seen[key]++;
        if (occurrence > 0) {
          key += '#';
          key += std::to_string(occurrence);
        }
        out.emplace_back(std::move(key), &row);
      }
      return out;
    };
    const auto rows_a = keyed_rows(*ra);
    auto rows_b = keyed_rows(*rb);
    std::map<std::string, const JsonValue*> b_by_key;
    for (auto& [key, row] : rows_b) b_by_key.emplace(key, row);

    const auto pretty = [](const std::string& key) {
      std::string label;
      for (const char c : key) {
        if (c == '\x1f') label += '|';
        else label += c;
      }
      if (!label.empty() && label.back() == '|') label.pop_back();
      return label;
    };

    for (const auto& [key, row] : rows_a) {
      const auto it = b_by_key.find(key);
      if (it == b_by_key.end()) {
        add(DiffKind::kMissing, location + "[" + pretty(key) + "]", "<row>",
            "");
        continue;
      }
      const JsonValue& other = *it->second;
      b_by_key.erase(it);
      if (row->items.size() != other.items.size()) {
        add(DiffKind::kShape, location + "[" + pretty(key) + "]",
            std::to_string(row->items.size()) + " cells",
            std::to_string(other.items.size()) + " cells");
        continue;
      }
      // A sweep_metrics row whose metric name is a timing name is
      // wall-clock data in row form; skip it like a timing column. Same
      // for rows naming an obs.* registry metric.
      if (metric_column < row->items.size() &&
          row->items[metric_column].kind == JsonValue::Kind::kString) {
        const std::string& metric = row->items[metric_column].text;
        if (timing_name(metric)) continue;
        if (options_.ignore_telemetry && telemetry_metric_name(metric)) {
          continue;
        }
      }
      for (std::size_t c = 0; c < row->items.size(); ++c) {
        if (c < columns.size() && timing_name(columns[c])) continue;
        const std::string cell_location =
            location + "[" + pretty(key) + "]/" +
            (c < columns.size() ? columns[c] : std::to_string(c));
        compare_value(cell_location, row->items[c], other.items[c]);
      }
    }
    for (const auto& [key, row] : b_by_key) {
      (void)row;
      add(DiffKind::kExtra, location + "[" + pretty(key) + "]", "", "<row>");
    }
  }

  const DiffOptions& options_;
  ResultDiff& diff_;
};

const char* kind_label(DiffKind kind) {
  switch (kind) {
    case DiffKind::kDrift: return "DRIFT";
    case DiffKind::kMissing: return "MISSING";
    case DiffKind::kExtra: return "EXTRA";
    case DiffKind::kShape: return "SHAPE";
  }
  return "?";
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue parse_json(const std::string& text) {
  return JsonReader(text).parse_document();
}

std::size_t ResultDiff::count(DiffKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(),
                    [kind](const DiffEntry& e) { return e.kind == kind; }));
}

ResultDiff diff_results(const JsonValue& baseline, const JsonValue& candidate,
                        const DiffOptions& options) {
  ResultDiff diff;
  Differ(options, diff).compare_artifact(baseline, candidate);
  return diff;
}

void write_diff_report(const ResultDiff& diff, const DiffOptions& options,
                       std::ostream& out) {
  if (diff.clean()) {
    out << "results match: " << diff.values_matched << "/"
        << diff.values_compared << " compared values within tolerance "
        << util::format_double_roundtrip(options.tolerance) << "\n";
    return;
  }
  for (const DiffEntry& e : diff.entries) {
    out << kind_label(e.kind) << " " << e.location;
    if (e.kind == DiffKind::kDrift && e.numeric) {
      out << ": " << e.baseline << " -> " << e.candidate
          << " (abs " << util::format_double_roundtrip(e.abs_delta) << ", rel "
          << util::format_double_roundtrip(e.rel_delta) << ")";
    } else if (e.kind == DiffKind::kDrift || e.kind == DiffKind::kShape) {
      out << ": '" << e.baseline << "' -> '" << e.candidate << "'";
    } else if (e.kind == DiffKind::kMissing) {
      out << ": present only in baseline";
    } else {
      out << ": present only in candidate";
    }
    out << "\n";
  }
  out << diff.count(DiffKind::kDrift) << " drifted, "
      << diff.count(DiffKind::kMissing) << " missing, "
      << diff.count(DiffKind::kExtra) << " extra, "
      << diff.count(DiffKind::kShape) << " shape mismatch(es); "
      << diff.values_matched << "/" << diff.values_compared
      << " compared values within tolerance "
      << util::format_double_roundtrip(options.tolerance) << "\n";
}

}  // namespace pg::scenario
