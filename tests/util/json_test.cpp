// Tests for the minimal JSON document model and parser that backs the trace
// tooling (trace_report ingestion, tracer round-trip tests).
#include "issa/util/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace issa::util::json {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Value::parse("null").is_null());
  EXPECT_TRUE(Value::parse("true").as_bool());
  EXPECT_FALSE(Value::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Value::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Value::parse("-0.25e2").as_number(), -25.0);
  EXPECT_DOUBLE_EQ(Value::parse("0").as_number(), 0.0);
  EXPECT_EQ(Value::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonTest, ParsesNestedContainersPreservingOrder) {
  const Value v = Value::parse(R"({"b": [1, 2, {"c": null}], "a": "x"})");
  ASSERT_TRUE(v.is_object());
  const auto& obj = v.as_object();
  ASSERT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj[0].first, "b");  // insertion order kept
  EXPECT_EQ(obj[1].first, "a");
  const auto& arr = v.at("b").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[1].as_number(), 2.0);
  EXPECT_TRUE(arr[2].at("c").is_null());
}

TEST(JsonTest, DecodesEscapesIncludingSurrogatePairs) {
  const Value v = Value::parse(R"("a\"b\\c\n\tAé😀")");
  EXPECT_EQ(v.as_string(),
            std::string("a\"b\\c\n\tA\xc3\xa9\xf0\x9f\x98\x80"));
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_THROW(Value::parse(""), ParseError);
  EXPECT_THROW(Value::parse("{"), ParseError);
  EXPECT_THROW(Value::parse("[1,]"), ParseError);
  EXPECT_THROW(Value::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Value::parse("01"), ParseError);
  EXPECT_THROW(Value::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Value::parse("nul"), ParseError);
  EXPECT_THROW(Value::parse("{} trailing"), ParseError);
}

TEST(JsonTest, ParseErrorCarriesByteOffset) {
  try {
    Value::parse("[1, x]");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

TEST(JsonTest, TypedAccessorsThrowOnMismatch) {
  const Value v = Value::parse("[1]");
  EXPECT_THROW(v.as_object(), std::logic_error);
  EXPECT_THROW(v.as_number(), std::logic_error);
  EXPECT_THROW(v.at("missing"), std::out_of_range);
}

TEST(JsonTest, LookupHelpers) {
  const Value v = Value::parse(R"({"n": 2, "s": "txt"})");
  EXPECT_EQ(v.find("n")->as_number(), 2.0);
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_DOUBLE_EQ(v.number_or("n", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(v.number_or("absent", -1.0), -1.0);
  EXPECT_EQ(v.string_or("s", "d"), "txt");
  EXPECT_EQ(v.string_or("absent", "d"), "d");
}

TEST(JsonTest, MutatorsBuildDocuments) {
  Value obj = Value::make_object();
  obj.set("k", Value::make_number(1.0));
  Value arr = Value::make_array();
  arr.push_back(Value::make_string("e"));
  obj.set("a", std::move(arr));
  EXPECT_DOUBLE_EQ(obj.at("k").as_number(), 1.0);
  EXPECT_EQ(obj.at("a").as_array()[0].as_string(), "e");
}

TEST(JsonTest, EscapeKeepsReportsParseable) {
  // Quote and backslash are escaped; control bytes become spaces.
  const std::string raw = std::string("a\"b\\c\n\td") + '\0' + "\x1f";
  const std::string escaped = escape(raw);
  EXPECT_EQ(escaped, "a\\\"b\\\\c  d  ");
  EXPECT_EQ(Value::parse("\"" + escaped + "\"").as_string(), "a\"b\\c  d  ");
  EXPECT_EQ(escape("plain"), "plain");
}

}  // namespace
}  // namespace issa::util::json
