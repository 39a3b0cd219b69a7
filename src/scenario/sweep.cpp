#include "scenario/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

namespace pg::scenario {

namespace {

std::string trim(const std::string& s) { return util::trim_whitespace(s); }

double parse_range_number(const std::string& clause, const std::string& token) {
  const std::string t = trim(token);
  PG_CHECK(!t.empty(), "sweep clause '" + clause + "': empty range endpoint");
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  PG_CHECK(end != nullptr && *end == '\0',
           "sweep clause '" + clause + "': malformed range number '" + t + "'");
  PG_CHECK(std::isfinite(v),
           "sweep clause '" + clause + "': non-finite range endpoint");
  return v;
}

/// Grid values print as integers when exactly integral so integer-typed
/// spec fields (epochs, seed, ...) accept them; everything else uses the
/// shortest-roundtrip double form.
std::string format_grid_value(double v) {
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    const long long as_int = static_cast<long long>(v);
    return std::to_string(as_int);
  }
  return util::format_double_roundtrip(v);
}

std::string join(const std::vector<std::string>& items, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

}  // namespace

SweepAxis parse_sweep_clause(const std::string& clause) {
  const std::string text = trim(clause);
  const std::size_t eq = text.find('=');
  PG_CHECK(eq != std::string::npos && eq > 0,
           "sweep clause '" + clause + "': expected <key>=<values>");
  SweepAxis axis;
  axis.key = trim(text.substr(0, eq));
  const std::string spec_part = trim(text.substr(eq + 1));
  PG_CHECK(!axis.key.empty(), "sweep clause '" + clause + "': empty key");
  PG_CHECK(axis.key != "sweep",
           "sweep clause '" + clause + "': sweep axes cannot be nested");
  // The executor width and the cache envelope (one executor and one
  // shared CacheBundle serve the whole grid) and the display-only
  // identity fields are resolved ONCE per run, so an axis over them
  // could never take effect -- reject it instead of emitting a
  // mislabeled grid. (`kind` DOES vary per point.)
  for (const char* fixed : {"threads", "use_cache", "cache_dir",
                            "cache_max_bytes", "name", "description"}) {
    PG_CHECK(axis.key != fixed,
             "sweep clause '" + clause + "': '" + fixed +
                 "' is fixed for the whole run and cannot be swept");
  }
  {
    // Unknown keys fail here, with the spec table's own error message.
    ScenarioSpec probe;
    (void)probe.get(axis.key);
  }
  PG_CHECK(!spec_part.empty(), "sweep clause '" + clause + "': no values");

  const std::size_t dots = spec_part.find("..");
  if (dots != std::string::npos) {
    // Range form: start..stop[:steps].
    const std::string start_tok = spec_part.substr(0, dots);
    std::string stop_tok = spec_part.substr(dots + 2);
    std::size_t steps = 5;  // documented default (see cli_usage / README)
    const std::size_t colon = stop_tok.find(':');
    if (colon != std::string::npos) {
      const std::string steps_tok = trim(stop_tok.substr(colon + 1));
      stop_tok = stop_tok.substr(0, colon);
      char* end = nullptr;
      const unsigned long long parsed =
          std::strtoull(steps_tok.c_str(), &end, 10);
      PG_CHECK(!steps_tok.empty() && end != nullptr && *end == '\0' &&
                   steps_tok.find('-') == std::string::npos,
               "sweep clause '" + clause + "': malformed step count '" +
                   steps_tok + "'");
      steps = static_cast<std::size_t>(parsed);
    }
    PG_CHECK(steps >= 2, "sweep clause '" + clause +
                             "': a range needs >= 2 steps (use a value list "
                             "for a single point)");
    PG_CHECK(steps <= 1000000,
             "sweep clause '" + clause + "': step count too large");
    const double start = parse_range_number(clause, start_tok);
    const double stop = parse_range_number(clause, stop_tok);
    axis.values.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
      const double t =
          static_cast<double>(i) / static_cast<double>(steps - 1);
      axis.values.push_back(format_grid_value(start + t * (stop - start)));
    }
    axis.clause = axis.key + "=" + format_grid_value(start) + ".." +
                  format_grid_value(stop) + ":" + std::to_string(steps);
  } else {
    // List form: v1[,v2,...]. Values keep their exact spelling.
    std::string item;
    std::size_t pos = 0;
    while (pos <= spec_part.size()) {
      const std::size_t comma = spec_part.find(',', pos);
      item = trim(spec_part.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos));
      PG_CHECK(!item.empty(),
               "sweep clause '" + clause + "': empty value in list");
      axis.values.push_back(item);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    axis.clause = axis.key + "=" + join(axis.values, ",");
  }
  return axis;
}

SweepPlan::SweepPlan(const ScenarioSpec& base) : base_(base) {
  base_.sweeps.clear();
  for (const std::string& clause : base.sweeps) {
    SweepAxis axis = parse_sweep_clause(clause);
    for (const SweepAxis& prior : axes_) {
      PG_CHECK(prior.key != axis.key,
               "duplicate sweep axis '" + axis.key + "'");
    }
    // Type-check every value now: a bad value must fail at plan time,
    // not at grid point 17 of a long run.
    ScenarioSpec scratch = base_;
    for (const std::string& value : axis.values) {
      scratch.set(axis.key, value);
    }
    PG_CHECK(size_ <= 1000000 / axis.values.size(),
             "sweep grid too large (over 1e6 points)");
    size_ *= axis.values.size();
    axes_.push_back(std::move(axis));
  }
}

std::vector<std::string> SweepPlan::axis_keys() const {
  std::vector<std::string> keys;
  keys.reserve(axes_.size());
  for (const SweepAxis& axis : axes_) keys.push_back(axis.key);
  return keys;
}

std::vector<std::pair<std::string, std::string>> SweepPlan::coordinates(
    std::size_t index) const {
  PG_CHECK(index < size_, "sweep grid index out of range");
  std::vector<std::pair<std::string, std::string>> coords(axes_.size());
  // Row-major: the last declared axis varies fastest.
  std::size_t rest = index;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const SweepAxis& axis = axes_[a];
    coords[a] = {axis.key, axis.values[rest % axis.values.size()]};
    rest /= axis.values.size();
  }
  return coords;
}

ScenarioSpec SweepPlan::child(std::size_t index) const {
  ScenarioSpec spec = base_;
  for (const auto& [key, value] : coordinates(index)) {
    spec.set(key, value);
  }
  return spec;
}

}  // namespace pg::scenario
