// Minimal JSON document model + recursive-descent parser, plus the string
// escaper every report writer uses.
//
// Exists so the trace tooling can round-trip its own emissions (trace_report
// ingests Chrome trace-event JSON / JSONL; the tracer unit tests parse what
// the writers produce) without an external dependency.  Supports the full
// JSON value grammar; numbers are held as double (adequate for timestamps
// and counts up to 2^53, which covers steady-clock microseconds for ~285
// years).  Objects preserve insertion order.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace issa::util::json {

/// Thrown on malformed input; carries a byte offset for diagnostics.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null

  static Value make_bool(bool b);
  static Value make_number(double d);
  static Value make_string(std::string s);
  static Value make_array();
  static Value make_object();

  /// Parses exactly one JSON document (trailing whitespace allowed, anything
  /// else throws ParseError).
  static Value parse(std::string_view text);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw std::logic_error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::vector<std::pair<std::string, Value>>& as_object() const;

  /// Object lookup: pointer to the value of `key`, nullptr when absent (or
  /// when this value is not an object).
  const Value* find(std::string_view key) const noexcept;
  /// Object lookup that throws std::out_of_range when absent.
  const Value& at(std::string_view key) const;

  /// Convenience: `find(key)` as number/string with a fallback.
  double number_or(std::string_view key, double fallback) const noexcept;
  std::string string_or(std::string_view key, std::string_view fallback) const;

  /// Mutators used by tests/tools to build documents.
  void push_back(Value v);                      ///< arrays only
  void set(std::string key, Value v);           ///< objects only

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Escapes `s` for the inside of a JSON string literal, as every report
/// writer in the tree emits it: quote and backslash are backslash-escaped and
/// control bytes become spaces, so a title or label carrying either still
/// yields a parseable document.
std::string escape(std::string_view s);

}  // namespace issa::util::json
