// Strict command-line option parsing shared by bench and example binaries.
// Supports `--key=value` and `--flag` forms, read from argv only.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace issa::util {

class Options {
 public:
  /// `flags` declares every accepted option as the usage line shows it
  /// ("mc=N", "csv=path", "metrics[=stem]"); the option name is the part
  /// before '=' or '[', and a spec ending in '*' accepts every option with
  /// that prefix.  --help prints the usage line on stdout and exits 0.  An
  /// undeclared option or a positional argument prints "unknown option <arg>"
  /// and the usage line on stderr and exits 2, and so does an option whose
  /// spec requires a value ("mc=N", unlike "metrics[=stem]") given bare, so
  /// bad input never starts a run.
  Options(int argc, const char* const* argv, const std::vector<std::string_view>& flags);

  /// True when `--name` or `--name=anything-truthy` was passed.
  bool has_flag(std::string_view name) const;

  /// Numeric lookups.  A malformed value (trailing characters, a non-finite
  /// double, or for get_count_or one that is not positive) fails like fail().
  std::optional<std::string> get_string(std::string_view name) const;
  std::optional<double> get_double(std::string_view name) const;
  std::optional<long> get_long(std::string_view name) const;

  double get_double_or(std::string_view name, double fallback) const;
  /// A positive integer such as --mc=N or --rows=R.
  std::size_t get_count_or(std::string_view name, std::size_t fallback) const;

  /// Prints `message` and the usage line on stderr and exits 2: for values
  /// the program rejects after parsing (an out-of-range --bits, say).
  [[noreturn]] void fail(std::string_view message) const;

 private:
  std::string args_;   // flattened "--k=v\n--flag\n" list for lookup
  std::string usage_;  // "usage: prog [--flag] ..."
};

}  // namespace issa::util
