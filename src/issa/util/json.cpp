#include "issa/util/json.hpp"

#include <cmath>
#include <cstdlib>

namespace issa::util::json {

Value Value::make_bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double d) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::make_object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::logic_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::logic_error("json: not a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::logic_error("json: not a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (type_ != Type::kArray) throw std::logic_error("json: not an array");
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::as_object() const {
  if (type_ != Type::kObject) throw std::logic_error("json: not an object");
  return object_;
}

const Value* Value::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::out_of_range("json: missing key " + std::string(key));
  return *v;
}

double Value::number_or(std::string_view key, double fallback) const noexcept {
  const Value* v = find(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

std::string Value::string_or(std::string_view key, std::string_view fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->string_ : std::string(fallback);
}

void Value::push_back(Value v) {
  if (type_ != Type::kArray) throw std::logic_error("json: push_back on non-array");
  array_.push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  if (type_ != Type::kObject) throw std::logic_error("json: set on non-object");
  object_.emplace_back(std::move(key), std::move(v));
}

// ---------------------------------------------------------------------------
// Parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const { throw ParseError(message, pos_); }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) throw ParseError("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value obj = Value::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Value parse_array() {
    expect('[');
    Value arr = Value::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          out += parse_unicode_escape();
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  std::string parse_unicode_escape() {
    auto hex4 = [&]() -> unsigned {
      unsigned code = 0;
      for (int i = 0; i < 4; ++i) {
        if (pos_ >= text_.size()) fail("unterminated \\u escape");
        const char c = text_[pos_++];
        code <<= 4;
        if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
        else fail("bad \\u escape digit");
      }
      return code;
    };
    unsigned code = hex4();
    // Surrogate pair: combine into one code point when a low surrogate follows.
    if (code >= 0xD800 && code <= 0xDBFF && text_.substr(pos_, 2) == "\\u") {
      const std::size_t saved = pos_;
      pos_ += 2;
      const unsigned low = hex4();
      if (low >= 0xDC00 && low <= 0xDFFF) {
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
      } else {
        pos_ = saved;  // lone high surrogate: encode as-is below
      }
    }
    // UTF-8 encode.
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      if (pos_ == before) fail("bad number");
    };
    const std::size_t int_start = pos_;
    digits();
    // JSON int grammar: "0" or digit1-9 *digit — no leading zeros.
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      pos_ = int_start;
      fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      digits();
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number");
    return Value::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value Value::parse(std::string_view text) { return Parser(text).parse_document(); }

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace issa::util::json
