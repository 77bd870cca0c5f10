// ASCII table rendering for the bench harnesses, so each bench binary can
// print rows in the same layout as the paper's tables.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace issa::util {

/// Column alignment inside an AsciiTable.
enum class Align { kLeft, kRight };

/// Minimal table builder: set headers, push rows of strings, stream out.
class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> headers,
                      std::vector<Align> alignment = {});

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats a double with the given precision.
  static std::string num(double value, int precision = 2);

  /// Renders the table with a header rule and column padding.
  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> alignment_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const AsciiTable& table);

}  // namespace issa::util
