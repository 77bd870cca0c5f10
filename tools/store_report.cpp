// store_report: terminal summaries and maintenance of the persistent result
// stores written by --cache (util/store directories of .issaseg segments).
//
//   store_report <dir>                      summary (segments, conditions, kinds)
//   store_report --check <dir>              validate only (CI): exit non-zero on
//                                           corrupt segments or undecodable records
//
// The summary groups records by condition fingerprint and kind so a sweep's
// coverage is visible at a glance ("offset: 400 records over 1 condition").
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "issa/analysis/mc_cache.hpp"
#include "issa/util/store/store.hpp"

namespace {

using issa::util::store::Store;
using issa::util::store::StoreStats;

// Key layout "<fingerprint>:<kind>:<sample>" (see analysis/mc_cache).
struct KeyParts {
  std::string fingerprint;
  std::string kind;
  std::string sample;
  bool valid = false;
};

KeyParts split_key(const std::string& key) {
  KeyParts parts;
  const std::size_t first = key.find(':');
  const std::size_t last = key.rfind(':');
  if (first == std::string::npos || last == first) return parts;
  parts.fingerprint = key.substr(0, first);
  parts.kind = key.substr(first + 1, last - first - 1);
  parts.sample = key.substr(last + 1);
  parts.valid = !parts.fingerprint.empty() && !parts.kind.empty() && !parts.sample.empty();
  return parts;
}

void print_stats(const StoreStats& stats) {
  std::printf("segments loaded    : %zu\n", stats.segments_loaded);
  std::printf("records loaded     : %zu (%llu bytes)\n", stats.records_loaded,
              static_cast<unsigned long long>(stats.bytes_loaded));
  std::printf("duplicate records  : %zu\n", stats.duplicate_records);
  std::printf("corrupt segments   : %zu (%llu bytes dropped)\n", stats.corrupt_segments,
              static_cast<unsigned long long>(stats.bytes_dropped));
}

int summarize(const std::string& dir) {
  Store::Options options;
  options.must_exist = true;
  const Store store(dir, options);
  std::printf("store %s\n", dir.c_str());
  print_stats(store.stats());

  // fingerprint -> kind -> {records, quarantined}
  std::map<std::string, std::map<std::string, std::pair<std::size_t, std::size_t>>> by_condition;
  std::size_t foreign = 0;
  store.for_each([&](const std::string& key, const std::string& value) {
    const KeyParts parts = split_key(key);
    if (!parts.valid) {
      ++foreign;
      return;
    }
    auto& cell = by_condition[parts.fingerprint][parts.kind];
    ++cell.first;
    issa::analysis::mc_cache::CachedSample sample;
    if (issa::analysis::mc_cache::decode(value, sample) && !sample.error.empty()) ++cell.second;
  });

  std::printf("conditions         : %zu\n", by_condition.size());
  for (const auto& [fingerprint, kinds] : by_condition) {
    std::printf("  %.16s...\n", fingerprint.c_str());
    for (const auto& [kind, cell] : kinds) {
      std::printf("    %-12s %6zu record(s)", kind.c_str(), cell.first);
      if (cell.second > 0) std::printf(", %zu quarantined", cell.second);
      std::printf("\n");
    }
  }
  if (foreign > 0) std::printf("foreign keys       : %zu (not mc_cache records)\n", foreign);
  return 0;
}

int check(const std::string& dir) {
  Store::Options options;
  options.must_exist = true;
  const Store store(dir, options);
  const StoreStats stats = store.stats();
  print_stats(stats);

  std::size_t undecodable = 0;
  store.for_each([&](const std::string& key, const std::string& value) {
    const KeyParts parts = split_key(key);
    issa::analysis::mc_cache::CachedSample sample;
    if (!parts.valid || !issa::analysis::mc_cache::decode(value, sample)) {
      if (++undecodable <= 5) std::fprintf(stderr, "undecodable record: %s\n", key.c_str());
    }
  });
  if (undecodable > 0) std::fprintf(stderr, "undecodable records: %zu\n", undecodable);

  const bool healthy = stats.corrupt_segments == 0 && undecodable == 0;
  std::printf("check: %s\n", healthy ? "OK" : "FAILED");
  return healthy ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: store_report <dir>\n"
               "       store_report --check <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0].rfind("--", 0) != 0) return summarize(args[0]);
    if (args.size() == 2 && args[0] == "--check") return check(args[1]);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store_report: %s\n", e.what());
    return 1;
  }
}
