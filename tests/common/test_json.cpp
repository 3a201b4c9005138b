#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/json.hpp"

namespace cosa {
namespace json {
namespace {

Value
mustParse(const std::string& text)
{
    StatusOr<Value> parsed = Value::parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().message();
    return parsed.ok() ? std::move(parsed).value() : Value();
}

TEST(JsonValue, BuildsAndDumpsCanonically)
{
    Value v = Value::object();
    v.set("b", 2);
    v.set("a", 1);
    Value arr = Value::array();
    arr.push("x");
    arr.push(true);
    arr.push(Value());
    v.set("list", std::move(arr));
    // Insertion order, not key order; no whitespace.
    EXPECT_EQ(v.dump(), "{\"b\":2,\"a\":1,\"list\":[\"x\",true,null]}");
}

TEST(JsonValue, SetOverwritesInPlace)
{
    Value v = Value::object();
    v.set("a", 1);
    v.set("b", 2);
    v.set("a", 3);
    EXPECT_EQ(v.dump(), "{\"a\":3,\"b\":2}");
}

TEST(JsonValue, IntAndDoubleAreDistinctKinds)
{
    EXPECT_TRUE(mustParse("12").isInt());
    EXPECT_TRUE(mustParse("12.0").isDouble());
    EXPECT_TRUE(mustParse("1e3").isDouble());
    EXPECT_EQ(mustParse("12").dump(), "12");
    EXPECT_EQ(mustParse("-7").asInt(), -7);
}

TEST(JsonValue, DoublesUseShortestRoundTrip)
{
    Value v = Value(0.1);
    EXPECT_EQ(v.dump(), "0.1");
    EXPECT_EQ(Value(1.0).dump(), "1");
    // NaN/Inf have no JSON form.
    EXPECT_EQ(Value(std::nan("")).dump(), "null");
}

TEST(JsonValue, ParseThenRedumpIsByteStable)
{
    const std::string canonical =
        "{\"net\":\"resnet\",\"cycles\":123456789,\"edp\":0.0625,"
        "\"layers\":[{\"found\":true,\"energy_pj\":1.5e-07},null]}";
    const Value v = mustParse(canonical);
    EXPECT_EQ(v.dump(), canonical);
    // Idempotent through a second cycle too.
    EXPECT_EQ(mustParse(v.dump()).dump(), canonical);
}

TEST(JsonValue, StringEscapesRoundTrip)
{
    Value v = Value::object();
    v.set("s", std::string("tab\t quote\" back\\ nl\n ctrl\x01"));
    const Value parsed = mustParse(v.dump());
    EXPECT_EQ(parsed.getString("s", ""),
              "tab\t quote\" back\\ nl\n ctrl\x01");
}

TEST(JsonValue, ParsesUnicodeEscapes)
{
    const Value v = mustParse("{\"s\":\"\\u00e9\\u0041\"}");
    EXPECT_EQ(v.getString("s", ""), "\xc3\xa9" "A");
}

TEST(JsonValue, TypedGettersFallBack)
{
    const Value v = mustParse(
        "{\"b\":true,\"i\":3,\"d\":2.5,\"s\":\"x\"}");
    EXPECT_EQ(v.getBool("b", false), true);
    EXPECT_EQ(v.getInt("i", -1), 3);
    EXPECT_EQ(v.getDouble("d", 0.0), 2.5);
    EXPECT_EQ(v.getDouble("i", 0.0), 3.0) << "Int widens to double";
    EXPECT_EQ(v.getString("s", ""), "x");
    EXPECT_EQ(v.getInt("missing", 42), 42);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, RejectsMalformedInputWithOffset)
{
    for (const char* bad :
         {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
          "1 2", "{\"a\" 1}", "[1 2]", ""}) {
        StatusOr<Value> parsed = Value::parse(bad);
        EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
        if (!parsed.ok()) {
            EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidInput);
            EXPECT_NE(parsed.status().message().find("at byte"),
                      std::string::npos)
                << parsed.status().message();
        }
    }
}

TEST(JsonValue, RejectsTrailingGarbage)
{
    EXPECT_FALSE(Value::parse("{} extra").ok());
    EXPECT_TRUE(Value::parse("  {}  ").ok()) << "whitespace is fine";
}

TEST(JsonValue, DepthLimitStopsHostileNesting)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += "[";
    EXPECT_FALSE(Value::parse(deep).ok());
    // 40 levels is comfortably within the limit.
    std::string fine(40, '[');
    fine += std::string(40, ']');
    EXPECT_TRUE(Value::parse(fine).ok());
}

TEST(JsonValue, HugeIntegerWidensToDouble)
{
    const Value v = mustParse("123456789012345678901234567890");
    EXPECT_TRUE(v.isDouble());
}

TEST(JsonValue, AsIntTruncatesAndSaturates)
{
    EXPECT_EQ(mustParse("8.9").asInt(), 8);
    EXPECT_EQ(mustParse("-8.9").asInt(), -8);
    EXPECT_EQ(mustParse("1e300").asInt(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(mustParse("-1e300").asInt(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(mustParse("9223372036854775808").asInt(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).asInt(), 0);
}

} // namespace
} // namespace json
} // namespace cosa
