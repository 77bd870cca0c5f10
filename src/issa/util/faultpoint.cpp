#include "issa/util/faultpoint.hpp"

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>

namespace issa::util::faultpoint {

namespace {

// SplitMix64 finalizer: the standard 64-bit avalanche.  Trigger draws must
// decorrelate nearby keys (sample 3 vs sample 4) and nearby seeds.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Trigger {
  enum class Mode { kProbability, kKeys, kAlways };
  Mode mode = Mode::kAlways;
  double p = 0.0;             // kProbability
  std::uint64_t seed = 0;     // kProbability
  std::vector<std::uint64_t> keys;  // kKeys (sorted)
};

struct Site {
  std::string name;
  std::string trigger_text;
  std::uint64_t name_hash = 0;
  Trigger trigger;
  std::atomic<std::uint64_t> evaluations{0};
  std::atomic<std::uint64_t> fires{0};
};

// Immutable after publication; readers never lock.  Reconfiguration parks
// the previous Config in retired_configs() instead of freeing it, because a
// concurrent reader may still hold the old pointer — the documented contract
// is to configure while quiescent; parking keeps a violation from being a
// use-after-free while staying reachable (so LeakSanitizer stays quiet too).
struct Config {
  std::vector<std::unique_ptr<Site>> sites;
};

std::atomic<Config*> g_config{nullptr};
std::mutex g_retire_mutex;

std::vector<std::unique_ptr<Config>>& retired_configs() {
  static std::vector<std::unique_ptr<Config>> retired;
  return retired;
}

void publish(Config* next) {
  Config* prev = g_config.exchange(next, std::memory_order_acq_rel);
  if (prev != nullptr) {
    const std::lock_guard<std::mutex> lock(g_retire_mutex);
    retired_configs().emplace_back(prev);
  }
}

// Thread-local deterministic trigger state (see header: key = unit of work,
// attempt = retry depth).
thread_local std::vector<std::uint64_t> t_key_stack;
thread_local std::uint32_t t_attempt = 0;
thread_local std::uint32_t t_suspended = 0;

bool probability_fires(const Trigger& t, std::uint64_t site_hash, std::uint64_t key,
                       std::uint32_t attempt) noexcept {
  if (t.p >= 1.0) return true;
  if (t.p <= 0.0) return false;
  // One independent draw per (site, seed, key, attempt).
  const std::uint64_t draw = mix64(mix64(site_hash ^ t.seed) ^ mix64(key) ^
                                   mix64(0x5bf0f1edull + attempt));
  // 2^64 * p, computed in long double to keep p near 1 exact enough.
  const auto threshold = static_cast<std::uint64_t>(
      static_cast<long double>(t.p) * 18446744073709551616.0L);
  return draw < threshold;
}

bool keys_contain(const std::vector<std::uint64_t>& keys, std::uint64_t key) noexcept {
  for (const std::uint64_t k : keys) {
    if (k == key) return true;
  }
  return false;
}

Site* find_site(Config* config, std::string_view name) noexcept {
  if (config == nullptr) return nullptr;
  for (const auto& s : config->sites) {
    if (s->name == name) return s.get();
  }
  return nullptr;
}

[[noreturn]] void bad_spec(std::string_view entry, const std::string& why) {
  throw std::invalid_argument("--faults entry '" + std::string(entry) + "': " + why);
}

bool site_registered(std::string_view name) noexcept {
  for (const char* known : {sites::kLuSingularPivot, sites::kNewtonNonconvergence,
                            sites::kGminStageFail, sites::kTransientStepCollapse,
                            sites::kPoolTaskThrow}) {
    if (name == known) return true;
  }
  return name.substr(0, 5) == "test.";  // reserved for unit tests
}

std::uint64_t parse_u64(std::string_view entry, std::string_view text, const char* what) {
  if (text.empty()) bad_spec(entry, std::string("missing ") + what);
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') bad_spec(entry, std::string("bad ") + what + " '" + std::string(text) + "'");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      bad_spec(entry, std::string(what) + " '" + std::string(text) + "' does not fit in 64 bits");
    }
    value = value * 10 + digit;
  }
  return value;
}

Trigger parse_trigger(std::string_view entry, std::string_view text) {
  Trigger t;
  if (text == "always") {
    t.mode = Trigger::Mode::kAlways;
    return t;
  }
  if (text.size() >= 4 && text.substr(0, 3) == "key") {
    t.mode = Trigger::Mode::kKeys;
    std::string_view rest = text.substr(3);
    while (!rest.empty()) {
      const std::size_t bar = rest.find('|');
      const std::string_view item = rest.substr(0, bar);
      t.keys.push_back(parse_u64(entry, item, "key"));
      if (bar == std::string_view::npos) break;
      rest = rest.substr(bar + 1);
      if (rest.empty()) bad_spec(entry, "trailing '|' in key list");
    }
    return t;
  }
  if (text.size() >= 2 && text[0] == 'p') {
    t.mode = Trigger::Mode::kProbability;
    std::string_view body = text.substr(1);
    const std::size_t at = body.find('@');
    if (at != std::string_view::npos) {
      t.seed = parse_u64(entry, body.substr(at + 1), "seed");
      body = body.substr(0, at);
    }
    try {
      std::size_t consumed = 0;
      t.p = std::stod(std::string(body), &consumed);
      if (consumed != body.size()) throw std::invalid_argument("trailing characters");
    } catch (const std::exception&) {
      bad_spec(entry, "bad probability '" + std::string(body) + "'");
    }
    if (!(t.p >= 0.0) || !(t.p <= 1.0)) bad_spec(entry, "probability must be in [0, 1]");
    return t;
  }
  bad_spec(entry, "unknown trigger '" + std::string(text) +
                      "' (want p<float>[@seed], key<int>[|<int>...], or always)");
}

bool trigger_would_fire(const Site& site, std::uint64_t key, std::uint32_t attempt) noexcept {
  switch (site.trigger.mode) {
    case Trigger::Mode::kAlways:
      return true;
    case Trigger::Mode::kKeys:
      return keys_contain(site.trigger.keys, key);
    case Trigger::Mode::kProbability:
      return probability_fires(site.trigger, site.name_hash, key, attempt);
  }
  return false;
}

}  // namespace

bool armed() noexcept {
  const Config* c = g_config.load(std::memory_order_acquire);
  return c != nullptr && !c->sites.empty();
}

bool should_fire(const char* site) noexcept {
  Config* config = g_config.load(std::memory_order_acquire);
  Site* s = find_site(config, site);
  if (s == nullptr || t_suspended > 0) return false;
  const std::uint64_t evaluation = s->evaluations.fetch_add(1, std::memory_order_relaxed) + 1;

  bool fire = false;
  switch (s->trigger.mode) {
    case Trigger::Mode::kAlways:
      fire = true;
      break;
    case Trigger::Mode::kKeys:
      fire = !t_key_stack.empty() && keys_contain(s->trigger.keys, t_key_stack.back());
      break;
    case Trigger::Mode::kProbability: {
      // Unkeyed evaluations (no SampleScope on this thread) fall back to the
      // evaluation index as the key: still seeded/reproducible in serial code.
      const std::uint64_t key = t_key_stack.empty() ? evaluation : t_key_stack.back();
      fire = probability_fires(s->trigger, s->name_hash, key, t_attempt);
      break;
    }
  }
  if (fire) s->fires.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

void configure(std::string_view spec) {
  auto config = std::make_unique<Config>();
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t sep = rest.find_first_of(";,");
    std::string_view entry = rest.substr(0, sep);
    rest = sep == std::string_view::npos ? std::string_view{} : rest.substr(sep + 1);

    // Trim surrounding whitespace; empty entries (trailing ';') are fine.
    while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\t')) {
      entry = entry.substr(1);
    }
    while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\t')) {
      entry = entry.substr(0, entry.size() - 1);
    }
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) bad_spec(entry, "want <site>=<trigger>");
    const std::string_view name = entry.substr(0, eq);
    if (!site_registered(name)) {
      bad_spec(entry, "unknown fault site '" + std::string(name) +
                          "' (see util/faultpoint.hpp sites::, or use the test. prefix)");
    }
    if (find_site(config.get(), name) != nullptr) {
      bad_spec(entry, "site configured twice");
    }
    auto site = std::make_unique<Site>();
    site->name = std::string(name);
    site->trigger_text = std::string(entry.substr(eq + 1));
    site->name_hash = fnv1a(name);
    site->trigger = parse_trigger(entry, entry.substr(eq + 1));
    config->sites.push_back(std::move(site));
  }

  // Publish (parks the previous config; see Config comment).
  publish(config->sites.empty() ? nullptr : config.release());
}

void clear() { publish(nullptr); }

std::vector<SiteReport> report() {
  std::vector<SiteReport> out;
  const Config* config = g_config.load(std::memory_order_acquire);
  if (config == nullptr) return out;
  for (const auto& s : config->sites) {
    SiteReport r;
    r.site = s->name;
    r.trigger = s->trigger_text;
    r.evaluations = s->evaluations.load(std::memory_order_relaxed);
    r.fires = s->fires.load(std::memory_order_relaxed);
    out.push_back(std::move(r));
  }
  return out;
}

bool would_fire(std::string_view site, std::uint64_t key, std::uint32_t attempt) noexcept {
  Config* config = g_config.load(std::memory_order_acquire);
  const Site* s = find_site(config, site);
  return s != nullptr && trigger_would_fire(*s, key, attempt);
}

SampleScope::SampleScope(std::uint64_t key) noexcept {
  t_key_stack.push_back(key);
}

SampleScope::~SampleScope() {
  if (!t_key_stack.empty()) t_key_stack.pop_back();
}

RetryScope::RetryScope() noexcept { ++t_attempt; }

RetryScope::~RetryScope() {
  if (t_attempt > 0) --t_attempt;
}

SuspendScope::SuspendScope() noexcept { ++t_suspended; }

SuspendScope::~SuspendScope() { --t_suspended; }

}  // namespace issa::util::faultpoint
