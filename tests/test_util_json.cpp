// JSON parser / writer round-trip and error tests.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace {

using idde::util::Json;
using idde::util::JsonArray;
using idde::util::JsonError;
using idde::util::JsonObject;
using idde::util::JsonReader;
using idde::util::JsonWriter;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, WhitespaceTolerant) {
  const Json v = Json::parse("  {\n\t\"a\" : [ 1 , 2 ] }  ");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(JsonParse, NestedStructures) {
  const Json v = Json::parse(R"({"a":{"b":[1,{"c":true}]}})");
  EXPECT_TRUE(v.at("a").at("b").as_array()[1].at("c").as_bool());
}

TEST(JsonParse, StringEscapes) {
  const Json v = Json::parse(R"("line\nbreak \"quoted\" \\ \t A")");
  EXPECT_EQ(v.as_string(), "line\nbreak \"quoted\" \\ \t A");
}

TEST(JsonParse, UnicodeBmpEscapes) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
  EXPECT_TRUE(Json::parse("{}").as_object().empty());
}

TEST(JsonParse, ErrorsThrow) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse(R"("\ud800")"), JsonError);  // surrogate
}

TEST(JsonDump, CompactRoundTrip) {
  const std::string text =
      R"({"arr":[1,2.5,"x"],"flag":true,"nested":{"z":null}})";
  const Json v = Json::parse(text);
  EXPECT_EQ(Json::parse(v.dump()), v);
}

TEST(JsonDump, IntegersStayIntegral) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
}

TEST(JsonDump, PrettyIndentHasNewlines) {
  const Json v = Json::parse(R"({"a":[1]})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), v);
}

TEST(JsonDump, EscapesControlCharacters) {
  const Json v(std::string("a\nb\x01"));
  const std::string dumped = v.dump();
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  EXPECT_EQ(Json::parse(dumped), v);
}

TEST(JsonAccess, TypeMismatchThrows) {
  const Json v(1.5);
  EXPECT_THROW((void)v.as_string(), JsonError);
  EXPECT_THROW((void)v.as_array(), JsonError);
  EXPECT_THROW((void)v.as_object(), JsonError);
  EXPECT_THROW((void)v.as_bool(), JsonError);
  EXPECT_THROW((void)Json("x").as_number(), JsonError);
}

TEST(JsonAccess, AtAndFind) {
  const Json v = Json::parse(R"({"x":1})");
  EXPECT_DOUBLE_EQ(v.at("x").as_number(), 1.0);
  EXPECT_THROW((void)v.at("missing"), JsonError);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_NE(v.find("x"), nullptr);
  EXPECT_EQ(Json(1.0).find("x"), nullptr);  // non-object
}

TEST(JsonAccess, DefaultingAccessors) {
  const Json v = Json::parse(R"({"n":3,"s":"str"})");
  EXPECT_DOUBLE_EQ(v.number_or("n", -1.0), 3.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", -1.0), -1.0);
  EXPECT_EQ(v.string_or("s", "d"), "str");
  EXPECT_EQ(v.string_or("n", "d"), "d");  // wrong type -> default
}

TEST(JsonEquality, DeepCompare) {
  EXPECT_EQ(Json::parse("[1,[2,3]]"), Json::parse("[1,[2,3]]"));
  EXPECT_NE(Json::parse("[1,[2,3]]"), Json::parse("[1,[2,4]]"));
}

TEST(JsonBuild, ProgrammaticConstruction) {
  JsonObject obj;
  obj.emplace("k", Json(JsonArray{Json(1), Json("two")}));
  const Json v(std::move(obj));
  EXPECT_EQ(v.at("k").as_array()[1].as_string(), "two");
}

// --- hardening (PR 5): depth limit, duplicate keys, byte offsets ---

TEST(JsonHardening, ErrorsCarryByteOffsets) {
  try {
    (void)Json::parse(R"({"ok": 1, "bad": tru})");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.offset(), 17u);  // the 't' of the bad literal
    EXPECT_NE(std::string(e.what()).find("offset 17"), std::string::npos);
  }
  // Non-parser errors carry no offset.
  try {
    (void)Json(1.0).as_string();
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.offset(), JsonError::npos);
  }
}

TEST(JsonHardening, DuplicateKeysRejected) {
  EXPECT_THROW((void)Json::parse(R"({"a":1,"a":2})"), JsonError);
  EXPECT_THROW((void)Json::parse(R"({"x":{"a":1,"b":2,"a":3}})"), JsonError);
  // Same key at different depths is fine.
  EXPECT_NO_THROW((void)Json::parse(R"({"a":{"a":1}})"));
}

TEST(JsonHardening, DepthLimitStopsNestingBombs) {
  const auto nested = [](std::size_t depth, char open, char close) {
    std::string text(depth, open);
    text.append(depth, close);
    return text;
  };
  EXPECT_NO_THROW(
      (void)Json::parse(nested(Json::kMaxParseDepth, '[', ']')));
  EXPECT_THROW(
      (void)Json::parse(nested(Json::kMaxParseDepth + 1, '[', ']')),
      JsonError);
  // A 100k-deep bomb must throw, not exhaust the stack.
  EXPECT_THROW((void)Json::parse(std::string(100000, '[')), JsonError);
}

TEST(JsonHardening, IntCastGuardsAgainstOverflow) {
  EXPECT_THROW((void)Json(1e300).as_int(), JsonError);
  EXPECT_THROW((void)Json(-1e300).as_int(), JsonError);
  EXPECT_THROW((void)Json(std::numeric_limits<double>::quiet_NaN()).as_int(),
               JsonError);
  EXPECT_EQ(Json(-42.0).as_int(), -42);
}

TEST(JsonHardening, ValidatedAccessors) {
  using idde::util::as_finite;
  using idde::util::as_index;
  using idde::util::as_positive;
  EXPECT_EQ(as_index(Json(3), 5, "idx"), 3u);
  EXPECT_THROW((void)as_index(Json(5), 5, "idx"), JsonError);
  EXPECT_THROW((void)as_index(Json(-1), 5, "idx"), JsonError);
  EXPECT_THROW((void)as_index(Json(1e30), 5, "idx"), JsonError);
  EXPECT_THROW((void)as_index(Json(2.5), 5, "idx"), JsonError);
  EXPECT_THROW((void)as_index(Json("2"), 5, "idx"), JsonError);
  EXPECT_DOUBLE_EQ(as_finite(Json(0.0), 0.0, "v"), 0.0);
  EXPECT_THROW((void)as_finite(Json(-0.5), 0.0, "v"), JsonError);
  EXPECT_THROW(
      (void)as_finite(Json(std::numeric_limits<double>::infinity()), 0.0, "v"),
      JsonError);
  EXPECT_DOUBLE_EQ(as_positive(Json(2.5), "v"), 2.5);
  EXPECT_THROW((void)as_positive(Json(0.0), "v"), JsonError);
}

// --- the streaming forms: JsonReader and JsonWriter ---

TEST(JsonReader, WalksObjectsAndArraysInDocumentOrder) {
  JsonReader reader(R"( {"b": [1, 2.5, -3e2], "a": {"x": null}, "c": []} )");
  std::vector<std::string> keys;
  std::vector<double> numbers;
  std::string key;
  reader.begin_object();
  while (reader.next_key(key)) {
    keys.push_back(key);
    if (key == "b") {
      reader.begin_array();
      while (reader.next_element()) {
        numbers.push_back(reader.value().as_number());
      }
    } else {
      (void)reader.value();
    }
  }
  reader.finish();
  EXPECT_EQ(keys, (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(numbers, (std::vector<double>{1.0, 2.5, -300.0}));
}

TEST(JsonReader, DuplicateKeyThrowsAtTheKey) {
  const std::string text = R"({"a": 1, "a": [)";
  JsonReader reader(text);
  std::string key;
  reader.begin_object();
  ASSERT_TRUE(reader.next_key(key));
  (void)reader.value();
  try {
    (void)reader.next_key(key);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.offset(), text.rfind("\"a\""));
  }
  // Json::parse reports the same byte, before reading the value.
  try {
    (void)Json::parse(text);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.offset(), text.rfind("\"a\""));
  }
}

TEST(JsonReader, StreamedContainersCountTowardsTheDepthCap) {
  const std::string deep(Json::kMaxParseDepth, '[');
  JsonReader reader(deep);
  reader.begin_array();
  EXPECT_THROW((void)reader.value(), JsonError);
}

TEST(JsonReader, FinishRejectsTrailingCharacters) {
  JsonReader reader("[1] 2");
  (void)reader.value();
  EXPECT_THROW(reader.finish(), JsonError);
}

TEST(JsonWriter, MatchesDumpLayout) {
  const Json doc = Json::parse(
      R"({"z": [1, [], {}], "a": {"k": "v\n", "n": null}, "t": true})");
  for (const int indent : {-1, 0, 1, 3}) {
    std::string out;
    JsonWriter writer(out, indent);
    writer.begin_object();
    writer.key("a");
    writer.begin_object();
    writer.key("k");
    writer.string("v\n");
    writer.key("n");
    writer.null();
    writer.end_object();
    writer.key("t");
    writer.boolean(true);
    writer.key("z");
    writer.begin_array();
    writer.number(1.0);
    writer.begin_array();
    writer.end_array();
    writer.begin_object();
    writer.end_object();
    writer.end_array();
    writer.end_object();
    EXPECT_EQ(out, doc.dump(indent)) << "indent " << indent;
  }
}

TEST(JsonWriter, NumbersPrintLikePrintf17g) {
  const auto dumped = [](double d) { return Json(d).dump(); };
  EXPECT_EQ(dumped(-0.0), "0");
  EXPECT_EQ(dumped(999999999999999.0), "999999999999999");
  EXPECT_EQ(dumped(1e15), "1000000000000000");
  EXPECT_EQ(dumped(0.1), "0.10000000000000001");
  EXPECT_EQ(dumped(1e-7), "9.9999999999999995e-08");
  EXPECT_EQ(dumped(1e300), "1.0000000000000001e+300");
}

}  // namespace
