#include "scenario/spec.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "scenario/sweep.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

namespace pg::scenario {

namespace {

std::uint64_t parse_u64(const std::string& key, const std::string& value);
double parse_double(const std::string& key, const std::string& value);
bool parse_bool(const std::string& key, const std::string& value);

/// One settable field: a key plus typed set/get thunks over a member
/// pointer. Every access route (parse, print, --set) goes through this
/// table, so the three cannot drift apart.
struct Field {
  const char* key;
  void (*set)(ScenarioSpec&, const std::string& key, const std::string& value);
  std::string (*get)(const ScenarioSpec&);
};

template <auto Member>
void set_field(ScenarioSpec& spec, const std::string& key,
               const std::string& value) {
  auto& slot = spec.*Member;
  using T = std::decay_t<decltype(slot)>;
  if constexpr (std::is_same_v<T, std::string>) {
    slot = value;
  } else if constexpr (std::is_same_v<T, bool>) {
    slot = parse_bool(key, value);
  } else if constexpr (std::is_same_v<T, double>) {
    slot = parse_double(key, value);
  } else {
    slot = static_cast<T>(parse_u64(key, value));
  }
}

// The `sweep` key is list-valued: set() replaces the whole axis list
// with the `;`-separated clauses it is given (so --set stays last-wins),
// get() joins the normalized clauses back with "; ". Appending happens
// in parse() (repeated `sweep` lines) and through add_sweep().
void set_sweep_field(ScenarioSpec& spec, const std::string& key,
                     const std::string& value) {
  (void)key;
  // Parse into a scratch spec first: a malformed clause must leave the
  // target's axis list untouched, not half-replaced.
  ScenarioSpec scratch;
  scratch.add_sweep(value);
  spec.sweeps = std::move(scratch.sweeps);
}

std::string get_sweep_field(const ScenarioSpec& spec) {
  std::string out;
  for (std::size_t i = 0; i < spec.sweeps.size(); ++i) {
    if (i > 0) out += "; ";
    out += spec.sweeps[i];
  }
  return out;
}

template <auto Member>
std::string get_field(const ScenarioSpec& spec) {
  const auto& slot = spec.*Member;
  using T = std::decay_t<decltype(slot)>;
  if constexpr (std::is_same_v<T, std::string>) {
    return slot;
  } else if constexpr (std::is_same_v<T, bool>) {
    return slot ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    // util::format_double_roundtrip keeps parse(to_text()) bit-exact.
    return util::format_double_roundtrip(slot);
  } else {
    return std::to_string(slot);
  }
}

#define PG_SPEC_FIELD(member) \
  Field { #member, &set_field<&ScenarioSpec::member>, \
          &get_field<&ScenarioSpec::member> }

const std::vector<Field>& field_table() {
  static const std::vector<Field> table = {
      PG_SPEC_FIELD(name),
      PG_SPEC_FIELD(kind),
      PG_SPEC_FIELD(description),
      PG_SPEC_FIELD(seed),
      PG_SPEC_FIELD(instances),
      PG_SPEC_FIELD(epochs),
      PG_SPEC_FIELD(train_fraction),
      PG_SPEC_FIELD(poison_fraction),
      PG_SPEC_FIELD(class_separation),
      PG_SPEC_FIELD(real_corpus),
      PG_SPEC_FIELD(sweep_max),
      PG_SPEC_FIELD(sweep_steps),
      PG_SPEC_FIELD(replications),
      Field{"sweep", &set_sweep_field, &get_sweep_field},
      PG_SPEC_FIELD(aggregate),
      PG_SPEC_FIELD(draws),
      PG_SPEC_FIELD(support_min),
      PG_SPEC_FIELD(support_max),
      PG_SPEC_FIELD(attacks),
      PG_SPEC_FIELD(defenses),
      PG_SPEC_FIELD(solver_grid),
      PG_SPEC_FIELD(solver_iterations),
      PG_SPEC_FIELD(lp_pricing),
      PG_SPEC_FIELD(threads),
      PG_SPEC_FIELD(use_cache),
      PG_SPEC_FIELD(cache_dir),
      PG_SPEC_FIELD(cache_max_bytes),
      PG_SPEC_FIELD(trace),
      PG_SPEC_FIELD(metrics),
      PG_SPEC_FIELD(telemetry),
  };
  return table;
}

#undef PG_SPEC_FIELD

const Field& find_field(const std::string& key) {
  for (const Field& f : field_table()) {
    if (key == f.key) return f;
  }
  PG_CHECK(false, "unknown ScenarioSpec key: " + key);
  return field_table().front();  // unreachable
}

std::string trim(const std::string& s) { return util::trim_whitespace(s); }

/// Strip the JSON-ish decorations a line may carry: a trailing comma and
/// one layer of double quotes around the token.
std::string strip_jsonish(std::string s) {
  s = trim(s);
  if (!s.empty() && s.back() == ',') s = trim(s.substr(0, s.size() - 1));
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    s = s.substr(1, s.size() - 2);
  }
  return s;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  const std::string v = trim(value);
  PG_CHECK(!v.empty() && v.find('-') == std::string::npos,
           "ScenarioSpec " + key + ": expected a non-negative integer, got '" +
               value + "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  PG_CHECK(end != nullptr && *end == '\0',
           "ScenarioSpec " + key + ": malformed integer '" + value + "'");
  PG_CHECK(errno != ERANGE, "ScenarioSpec " + key + ": '" + value +
                                "' is out of range (max " +
                                std::to_string(parsed) + ")");
  return parsed;
}

double parse_double(const std::string& key, const std::string& value) {
  const std::string v = trim(value);
  PG_CHECK(!v.empty(), "ScenarioSpec " + key + ": empty number");
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  PG_CHECK(end != nullptr && *end == '\0',
           "ScenarioSpec " + key + ": malformed number '" + value + "'");
  return parsed;
}

bool parse_bool(const std::string& key, const std::string& value) {
  const std::string v = trim(value);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  PG_CHECK(false, "ScenarioSpec " + key + ": expected a boolean, got '" +
                      value + "'");
  return false;  // unreachable
}

}  // namespace

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  const Field& field = find_field(key);
  field.set(*this, key, value);
}

std::string ScenarioSpec::get(const std::string& key) const {
  return find_field(key).get(*this);
}

void ScenarioSpec::add_sweep(const std::string& clauses) {
  // Validate every clause before appending any (strong guarantee: a
  // throw leaves `sweeps` unchanged). parse_sweep_clause checks the key
  // and grammar and returns the normalized clause text, so to_text()
  // prints a canonical form.
  std::vector<std::string> parsed;
  std::string item;
  std::istringstream in(clauses);
  while (std::getline(in, item, ';')) {
    item = trim(item);
    if (item.empty()) continue;
    parsed.push_back(parse_sweep_clause(item).clause);
  }
  sweeps.insert(sweeps.end(), parsed.begin(), parsed.end());
}

std::vector<std::string> ScenarioSpec::keys() {
  std::vector<std::string> out;
  out.reserve(field_table().size());
  for (const Field& f : field_table()) out.emplace_back(f.key);
  return out;
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream os;
  for (const Field& f : field_table()) {
    os << f.key << " = " << get(f.key) << "\n";
  }
  return os.str();
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = trim(raw);
    if (line.empty() || line[0] == '#' || line == "{" || line == "}") continue;
    // Accept both "key = value" and JSON-ish '"key": value,' spellings:
    // the separator is the first '=' or ':' after the (possibly quoted)
    // key, so a quoted value may itself contain either character.
    std::size_t sep = std::string::npos;
    if (line.front() == '"') {
      const std::size_t close = line.find('"', 1);
      PG_CHECK(close != std::string::npos,
               "ScenarioSpec parse: unterminated quoted key on line " +
                   std::to_string(line_no));
      sep = line.find_first_of("=:", close + 1);
    } else {
      sep = line.find_first_of("=:");
    }
    PG_CHECK(sep != std::string::npos,
             "ScenarioSpec parse: line " + std::to_string(line_no) +
                 " has no key/value separator: '" + raw + "'");
    const std::string key = strip_jsonish(line.substr(0, sep));
    const std::string value = strip_jsonish(line.substr(sep + 1));
    PG_CHECK(!key.empty(), "ScenarioSpec parse: empty key on line " +
                               std::to_string(line_no));
    if (key == "sweep") {
      spec.add_sweep(value);  // repeatable: each line appends axes
    } else {
      spec.set(key, value);
    }
  }
  return spec;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(csv);
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace pg::scenario
