#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>

namespace metadock::util {
namespace {

TEST(Json, EmptyObjectAndArray) {
  JsonWriter o;
  o.begin_object().end_object();
  EXPECT_EQ(o.str(), "{}");
  JsonWriter a;
  a.begin_array().end_array();
  EXPECT_EQ(a.str(), "[]");
}

TEST(Json, KeyValuePairs) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(1);
  w.key("b").value("two");
  w.key("c").value(true);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"two","c":true})");
}

TEST(Json, NestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("list").begin_array();
  w.value(1);
  w.begin_object().key("x").value(2.5).end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"list":[1,{"x":2.5}]})");
}

TEST(Json, ArrayCommas) {
  JsonWriter w;
  w.begin_array();
  w.value(1);
  w.value(2);
  w.value(3);
  w.end_array();
  EXPECT_EQ(w.str(), "[1,2,3]");
}

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, UnsignedAndSizeValues) {
  JsonWriter w;
  w.begin_array();
  w.value(std::uint64_t{18446744073709551615ull});
  w.value(std::size_t{7});
  w.end_array();
  EXPECT_EQ(w.str(), "[18446744073709551615,7]");
}

TEST(Json, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW((void)w.str(), std::logic_error);  // unclosed
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::parse("3.25").as_double(), 3.25);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1e3").as_double(), -1000.0);
  EXPECT_EQ(JsonValue::parse("42").as_int64(), 42);
  EXPECT_EQ(JsonValue::parse("42").as_uint64(), 42u);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonReader, ParsesContainersAndLookup) {
  const JsonValue v = JsonValue::parse(R"({"a":1,"b":[true,null,"x"],"c":{"d":2.5}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_int64(), 1);
  const auto& arr = v.at("b").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].as_string(), "x");
  EXPECT_DOUBLE_EQ(v.at("c").at("d").as_double(), 2.5);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), std::out_of_range);
}

TEST(JsonReader, FallbackAccessors) {
  const JsonValue v = JsonValue::parse(R"({"n":7,"s":"str","b":true})");
  EXPECT_DOUBLE_EQ(v.number_or("n", -1.0), 7.0);
  EXPECT_DOUBLE_EQ(v.number_or("nope", -1.0), -1.0);
  EXPECT_EQ(v.string_or("s", "dflt"), "str");
  EXPECT_EQ(v.string_or("nope", "dflt"), "dflt");
  EXPECT_TRUE(v.bool_or("b", false));
  EXPECT_FALSE(v.bool_or("nope", false));
  // Wrong-typed members also yield the fallback.
  EXPECT_DOUBLE_EQ(v.number_or("s", -1.0), -1.0);
}

TEST(JsonReader, DecodesEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\nd\tA")").as_string(), "a\"b\\c\nd\tA");
}

TEST(JsonReader, RoundtripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("lig \"x\"\n");
  w.key("score").value_exact(-12.345678901234567);
  w.key("ids").begin_array().value(1).value(2).end_array();
  w.end_object();
  const JsonValue v = JsonValue::parse(w.str());
  EXPECT_EQ(v.at("name").as_string(), "lig \"x\"\n");
  EXPECT_EQ(v.at("score").as_double(), -12.345678901234567);
  EXPECT_EQ(v.at("ids").as_array().size(), 2u);
}

TEST(JsonReader, ValueExactRoundtripsAwkwardDoubles) {
  // 0.1 and friends do not survive the default %.10g writer; value_exact
  // must reproduce the bits for every case.
  const double cases[] = {0.1,   1.0 / 3.0, -7.23456789012345678e-300, 6.02214076e23,
                          0.0,   -0.0,      1e-9,
                          123.456789012345678, -1.5e-45};
  for (const double d : cases) {
    JsonWriter w;
    w.begin_array();
    w.value_exact(d);
    w.end_array();
    const JsonValue v = JsonValue::parse(w.str());
    const double back = v.as_array()[0].as_double();
    EXPECT_EQ(std::memcmp(&back, &d, sizeof d), 0) << w.str();
  }
}

TEST(JsonReader, MalformedInputThrowsWithOffset) {
  const char* bad[] = {"",     "{",        "[1,",       "{\"a\":}", "tru",
                       "1.2.3", "\"unterm", "[1] extra", "{\"a\" 1}"};
  for (const char* text : bad) {
    EXPECT_THROW((void)JsonValue::parse(text), JsonParseError) << text;
  }
  try {
    (void)JsonValue::parse("[1, x]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

TEST(JsonReader, TypeMismatchThrows) {
  const JsonValue v = JsonValue::parse(R"({"n":1.5})");
  EXPECT_THROW((void)v.at("n").as_string(), std::logic_error);
  EXPECT_THROW((void)v.at("n").as_int64(), std::logic_error);  // non-integral
  EXPECT_THROW((void)JsonValue::parse("-3").as_uint64(), std::logic_error);
  EXPECT_THROW((void)v.as_array(), std::logic_error);
}

TEST(JsonReader, IntegerRangeIsCheckedBeforeConverting) {
  // A double outside [-2^63, 2^63) must be rejected, never converted: the
  // conversion is undefined behaviour (-fsanitize=float-cast-overflow
  // aborts on it).
  EXPECT_THROW((void)JsonValue::parse("1e300").as_int64(), std::logic_error);
  EXPECT_THROW((void)JsonValue::parse("-1e300").as_int64(), std::logic_error);
  EXPECT_THROW((void)JsonValue::parse("9223372036854775808").as_int64(), std::logic_error);
  EXPECT_THROW((void)JsonValue::parse("1e300").as_uint64(), std::logic_error);
  EXPECT_EQ(JsonValue::parse("-9223372036854775808").as_int64(),
            std::numeric_limits<std::int64_t>::min());
  // The largest double below 2^63.
  EXPECT_EQ(JsonValue::parse("9223372036854774784").as_int64(), 9223372036854774784);
}

TEST(JsonReader, DeepNestingIsRejectedNotCrashing) {
  std::string deep(2000, '[');
  deep += std::string(2000, ']');
  EXPECT_THROW((void)JsonValue::parse(deep), JsonParseError);
}

}  // namespace
}  // namespace metadock::util
