// Tiny command-line/environment option helpers shared by bench and example
// binaries.  Supports `--key=value` and `--flag` forms plus environment
// fallbacks (ISSA_FAST=1 shrinks Monte-Carlo counts for smoke runs).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace issa::util {

class Options {
 public:
  /// Lenient form: accepts any argument; lookups see only `--name` forms.
  Options(int argc, const char* const* argv);

  /// Strict form for program mains.  `flags` declares every accepted option
  /// as the usage line shows it ("fast", "csv=path", "metrics[=stem]"); the
  /// option name is the part before '=' or '[', and a spec ending in '*'
  /// accepts every option with that prefix.  --help prints the usage line on
  /// stdout and exits 0.  An undeclared option or a positional argument
  /// prints "unknown option <arg>" and the usage line on stderr and exits 2,
  /// so bad input never starts a run.
  Options(int argc, const char* const* argv, const std::vector<std::string_view>& flags);

  /// True when `--name` or `--name=anything-truthy` was passed.
  bool has_flag(std::string_view name) const;

  /// True when has_flag(name), or when the environment variable `env` is set
  /// to a non-empty, non-"0" value.
  bool flag_or_env(std::string_view name, const char* env) const;

  /// Numeric lookups.  A malformed value (or, for get_count_or, one that is
  /// not positive) fails like fail() in the strict form and throws
  /// std::invalid_argument in the lenient form.
  std::optional<std::string> get_string(std::string_view name) const;
  std::optional<double> get_double(std::string_view name) const;
  std::optional<long> get_long(std::string_view name) const;

  double get_double_or(std::string_view name, double fallback) const;
  long get_long_or(std::string_view name, long fallback) const;
  /// A positive integer such as --mc=N or --rows=R.
  std::size_t get_count_or(std::string_view name, std::size_t fallback) const;

  /// Prints `message` and the usage line on stderr and exits 2: for values
  /// the program rejects after parsing (a malformed --shard, say).
  [[noreturn]] void fail(std::string_view message) const;

 private:
  [[noreturn]] void reject(const std::string& message) const;

  std::string args_;   // flattened "--k=v\n--flag\n" list for lookup
  std::string usage_;  // "usage: prog [--flag] ..." (strict form only)
};

/// True when the ISSA_FAST environment variable is set to a non-empty,
/// non-"0" value, or --fast was passed.  Benches use this to shrink
/// Monte-Carlo iteration counts for quick smoke runs.
bool fast_mode(const Options& options);

/// Monte-Carlo iteration count used by benches: the paper's 400 by default,
/// overridable with --mc=N (a positive integer), shrunk to 60 in fast mode.
std::size_t bench_mc_iterations(const Options& options);

}  // namespace issa::util
