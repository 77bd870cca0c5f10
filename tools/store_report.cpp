// store_report: terminal summaries and maintenance of the persistent result
// stores written by --cache (util/store directories of .issaseg segments).
//
//   store_report <dir>                      summary (segments, conditions, kinds)
//   store_report --check <dir>              validate only (CI): exit non-zero on
//                                           corrupt segments or undecodable records
//   store_report --merge <out> <in>...      merge shard stores into one store;
//                                           conflicting values for a key = error
//
// The summary groups records by condition fingerprint and kind so a sharded
// sweep's coverage is visible at a glance ("offset: 400 records over 1
// condition").  --merge is the join step of a sharded sweep: N processes run
// `bench --cache=dir-i --shard=i/N`, then one merge produces the store a
// single unsharded run would have written, and a warm unsharded rerun over it
// replays every sample bit-identically.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
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

int merge(const std::string& out_dir, const std::vector<std::string>& in_dirs) {
  // Load every input first so a conflict aborts before the output is touched.
  std::vector<Store*> inputs;
  std::vector<std::unique_ptr<Store>> owned;
  for (const std::string& dir : in_dirs) {
    Store::Options options;
    options.must_exist = true;
    owned.push_back(std::make_unique<Store>(dir, options));
    inputs.push_back(owned.back().get());
  }

  // Content-addressed keys make a value conflict a hard error: two stores
  // disagreeing about one key means one of them was written by a different
  // (buggy or stale) binary, and merging would silently corrupt statistics.
  std::map<std::string, std::string> merged;
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    bool conflict = false;
    inputs[i]->for_each([&](const std::string& key, const std::string& value) {
      const auto [it, inserted] = merged.emplace(key, value);
      if (inserted) return;
      ++duplicates;
      if (it->second != value) {
        std::fprintf(stderr, "merge conflict in %s: key %s has a different value\n",
                     in_dirs[i].c_str(), key.c_str());
        conflict = true;
      }
    });
    if (conflict) return 1;
  }

  Store out(out_dir);
  std::size_t written = 0;
  for (const auto& [key, value] : merged) {
    if (out.put(key, value)) ++written;
  }
  out.flush();
  std::printf("merged %zu store(s): %zu record(s) written to %s (%zu duplicate(s) across "
              "inputs, %zu already present)\n",
              in_dirs.size(), written, out_dir.c_str(), duplicates, merged.size() - written);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: store_report <dir>\n"
               "       store_report --check <dir>\n"
               "       store_report --merge <out-dir> <in-dir>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0].rfind("--", 0) != 0) return summarize(args[0]);
    if (args.size() == 2 && args[0] == "--check") return check(args[1]);
    if (args.size() >= 3 && args[0] == "--merge") {
      return merge(args[1], {args.begin() + 2, args.end()});
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store_report: %s\n", e.what());
    return 1;
  }
}
