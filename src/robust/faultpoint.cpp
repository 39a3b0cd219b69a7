#include "robust/faultpoint.h"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "util/env.h"

namespace pg::robust {

namespace {

struct Rule {
  std::string site;
  bool has_arg = false;
  std::uint64_t arg = 0;
  enum class Action { kCrash, kThrow, kDelay, kShortWrite };
  Action action = Action::kThrow;
  std::uint64_t delay_ms = 0;
  enum class Trigger { kAlways, kNth, kFromNth, kProb };
  Trigger trigger = Trigger::kAlways;
  std::uint64_t n = 0;      // kNth / kFromNth
  double prob = 0.0;        // kProb
  std::uint64_t seed = 0;   // kProb
  std::uint64_t hits = 0;   // matching hits so far, this process
  std::string entry;        // original spec text, for error messages
};

// One mutex guards the table for both configure() swaps and armed-path
// evaluation. Fault points live on cold paths (file writes, request
// framing), and the unarmed fast path never gets here.
std::mutex g_mutex;
std::vector<Rule> g_rules;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t state = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001B3ULL;
  }
  return state;
}

[[noreturn]] void bad_entry(const std::string& entry, const std::string& why) {
  throw std::invalid_argument("bad entry '" + entry + "': " + why);
}

std::uint64_t parse_u64(const std::string& text, const std::string& entry,
                        const std::string& what) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    bad_entry(entry, what + " must be a non-negative integer, got '" + text +
                         "'");
  }
  return std::strtoull(text.c_str(), nullptr, 10);
}

Rule parse_entry(const std::string& entry) {
  Rule rule;
  rule.entry = entry;

  const std::size_t colon = entry.find(':');
  if (colon == std::string::npos || colon == 0) {
    bad_entry(entry, "expected site:action");
  }
  std::string site = entry.substr(0, colon);
  std::string rest = entry.substr(colon + 1);

  // Optional [arg] selector on the site.
  if (!site.empty() && site.back() == ']') {
    const std::size_t open = site.find('[');
    if (open == std::string::npos || open == 0) {
      bad_entry(entry, "malformed [arg] selector");
    }
    rule.has_arg = true;
    rule.arg = parse_u64(site.substr(open + 1, site.size() - open - 2), entry,
                         "[arg]");
    site = site.substr(0, open);
  }
  rule.site = site;

  // Optional @trigger suffix on the action.
  std::string trigger;
  if (const std::size_t at = rest.find('@'); at != std::string::npos) {
    trigger = rest.substr(at + 1);
    rest = rest.substr(0, at);
  }

  if (rest == "crash") {
    rule.action = Rule::Action::kCrash;
  } else if (rest == "throw") {
    rule.action = Rule::Action::kThrow;
  } else if (rest == "short-write") {
    rule.action = Rule::Action::kShortWrite;
  } else if (rest.rfind("delay=", 0) == 0) {
    rule.action = Rule::Action::kDelay;
    rule.delay_ms = parse_u64(rest.substr(6), entry, "delay");
  } else {
    bad_entry(entry, "unknown action '" + rest +
                         "' (crash | throw | delay=MS | short-write)");
  }

  if (trigger.empty()) {
    rule.trigger = Rule::Trigger::kAlways;
  } else if (trigger[0] == 'p') {
    rule.trigger = Rule::Trigger::kProb;
    std::string prob = trigger.substr(1);
    if (const std::size_t slash = prob.find('/');
        slash != std::string::npos) {
      rule.seed = parse_u64(prob.substr(slash + 1), entry, "seed");
      prob = prob.substr(0, slash);
    }
    char* end = nullptr;
    rule.prob = std::strtod(prob.c_str(), &end);
    if (prob.empty() || end == nullptr || *end != '\0' || rule.prob < 0.0 ||
        rule.prob > 1.0) {
      bad_entry(entry, "probability must be in [0,1], got '" + prob + "'");
    }
  } else if (trigger.back() == '+') {
    rule.trigger = Rule::Trigger::kFromNth;
    rule.n = parse_u64(trigger.substr(0, trigger.size() - 1), entry,
                       "trigger");
    if (rule.n == 0) bad_entry(entry, "hit triggers are 1-based");
  } else {
    rule.trigger = Rule::Trigger::kNth;
    rule.n = parse_u64(trigger, entry, "trigger");
    if (rule.n == 0) bad_entry(entry, "hit triggers are 1-based");
  }
  return rule;
}

/// Every entry of `spec`, parsed. A malformed one throws, its message
/// prefixed with `source`: the variable or flag the spec came from.
std::vector<Rule> parse_rules(const std::string& spec,
                              const std::string& source) {
  std::vector<Rule> rules;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    try {
      if (!entry.empty()) rules.push_back(parse_entry(entry));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(source + ": " + e.what());
    }
    begin = end + 1;
  }
  return rules;
}

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};

FaultHit faultpoint_slow(std::string_view site, std::uint64_t arg) {
  const Rule* fired = nullptr;
  Rule snapshot;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (Rule& rule : g_rules) {
      if (rule.site != site) continue;
      if (rule.has_arg && rule.arg != arg) continue;
      const std::uint64_t hit = ++rule.hits;
      bool fire = false;
      switch (rule.trigger) {
        case Rule::Trigger::kAlways:
          fire = true;
          break;
        case Rule::Trigger::kNth:
          fire = hit == rule.n;
          break;
        case Rule::Trigger::kFromNth:
          fire = hit >= rule.n;
          break;
        case Rule::Trigger::kProb: {
          const std::uint64_t draw =
              splitmix64(rule.seed ^ splitmix64(fnv1a(rule.site) ^ hit));
          fire = static_cast<double>(draw >> 11) * 0x1.0p-53 < rule.prob;
          break;
        }
      }
      if (fire) {
        snapshot = rule;
        fired = &snapshot;
        break;
      }
    }
  }
  if (fired == nullptr) return {};

  // Record the trigger BEFORE acting: throw/delay/short-write survive to
  // be snapshotted; a crash loses its counter with the process.
  obs::counter("obs.fault.triggered").add(1);
  obs::counter("obs.fault." + std::string(site)).add(1);

  switch (fired->action) {
    case Rule::Action::kCrash:
      // Die like a killed worker: unblockable, no atexit, no unwinding.
      std::raise(SIGKILL);
      std::_Exit(137);  // unreachable unless raise() somehow failed
    case Rule::Action::kThrow:
      throw InjectedFault("injected fault at " + std::string(site) + " (" +
                          fired->entry + ")");
    case Rule::Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(fired->delay_ms));
      return {};
    case Rule::Action::kShortWrite:
      return {.short_write = true};
  }
  return {};
}

}  // namespace detail

void validate(const std::string& spec, const std::string& source) {
  (void)parse_rules(spec, source);
}

void configure(const std::string& spec) {
  std::vector<Rule> rules = parse_rules(spec, "PG_FAULTS");
  std::lock_guard<std::mutex> lock(g_mutex);
  g_rules = std::move(rules);
  detail::g_armed.store(!g_rules.empty(), std::memory_order_relaxed);
}

void configure_from_env() {
  const std::string spec = util::env_string("PG_FAULTS");
  if (!spec.empty()) configure(spec);
}

void reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_rules.clear();
  detail::g_armed.store(false, std::memory_order_relaxed);
}

}  // namespace pg::robust
