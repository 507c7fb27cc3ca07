#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "util/json.h"

namespace ednsm::util {
namespace {

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3).dump(), "-3");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NanBecomesNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, EscapeSpecials) {
  EXPECT_EQ(Json("a\"b\\c\nd\te").dump(), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ArrayAndObjectDump) {
  JsonArray arr = {Json(1), Json("two"), Json(nullptr)};
  EXPECT_EQ(Json(arr).dump(), "[1,\"two\",null]");
  JsonObject obj;
  obj["b"] = Json(2);
  obj["a"] = Json(1);
  EXPECT_EQ(Json(obj).dump(), "{\"a\":1,\"b\":2}");  // sorted keys
}

TEST(Json, PrettyPrint) {
  JsonObject obj;
  obj["k"] = Json(JsonArray{Json(1)});
  const std::string pretty = Json(obj).dump(2);
  EXPECT_NE(pretty.find("\n  \"k\": [\n    1\n  ]\n"), std::string::npos);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json(JsonArray{}).dump(2), "[]");
  EXPECT_EQ(Json(JsonObject{}).dump(2), "{}");
}

TEST(Json, ParseScalars) {
  EXPECT_EQ(Json::parse("null").value(), Json(nullptr));
  EXPECT_EQ(Json::parse("true").value(), Json(true));
  EXPECT_EQ(Json::parse("false").value(), Json(false));
  EXPECT_EQ(Json::parse("3.5").value(), Json(3.5));
  EXPECT_EQ(Json::parse("-17").value(), Json(-17));
  EXPECT_EQ(Json::parse("1e3").value(), Json(1000.0));
  EXPECT_EQ(Json::parse("\"s\"").value(), Json("s"));
}

TEST(Json, ParseNested) {
  auto j = Json::parse(R"({"a": [1, {"b": "x"}], "c": null})");
  ASSERT_TRUE(j.has_value()) << j.error();
  EXPECT_EQ(j.value().at("a").as_array()[1].at("b").as_string(), "x");
  EXPECT_TRUE(j.value().at("c").is_null());
  EXPECT_TRUE(j.value().at("missing").is_null());
}

TEST(Json, ParseWhitespaceTolerant) {
  auto j = Json::parse("  {\n\t\"k\" :  1 , \"l\":[ ] }  ");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j.value().at("k").as_number(), 1.0);
}

TEST(Json, ParseEscapes) {
  auto j = Json::parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j.value().as_string(), "a\"b\\c\ndA");
}

TEST(Json, ParseUnicodeEscapesUtf8) {
  auto j = Json::parse(R"("é€")");  // é + €
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j.value().as_string(), "\xc3\xa9\xe2\x82\xac");
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} extra").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
  EXPECT_FALSE(Json::parse("01a").has_value());
  EXPECT_FALSE(Json::parse("\"bad \\q escape\"").has_value());
  EXPECT_FALSE(Json::parse("\"\\u12g4\"").has_value());
}

// Hostile nesting is an error, not a stack overflow; sane depths still parse.
TEST(Json, ParseBoundsNestingDepth) {
  constexpr std::size_t kHostile = 100000;
  const auto arrays = Json::parse(std::string(kHostile, '[') + std::string(kHostile, ']'));
  ASSERT_FALSE(arrays.has_value());
  EXPECT_NE(arrays.error().find("nesting"), std::string::npos) << arrays.error();
  std::string objects;
  for (std::size_t i = 0; i < kHostile; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kHostile, '}');
  const auto objs = Json::parse(objects);
  ASSERT_FALSE(objs.has_value());
  EXPECT_NE(objs.error().find("nesting"), std::string::npos) << objs.error();

  // 256 levels of alternating arrays and objects parse intact.
  std::string mixed;
  for (int i = 0; i < 128; ++i) mixed += "[{\"k\":";
  mixed += "true";
  for (int i = 0; i < 128; ++i) mixed += "}]";
  const auto deep = Json::parse(mixed);
  ASSERT_TRUE(deep.has_value()) << deep.error();
  const Json* node = &deep.value();
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(node->is_array());
    node = &node->as_array().at(0).at("k");
  }
  EXPECT_TRUE(node->is_bool() && node->as_bool());

  // The bound is exact: kMaxParseDepth levels parse, one more does not.
  const std::size_t max = Json::kMaxParseDepth;
  EXPECT_TRUE(Json::parse(std::string(max, '[') + std::string(max, ']')).has_value());
  EXPECT_FALSE(Json::parse(std::string(max + 1, '[') + std::string(max + 1, ']')).has_value());
}

TEST(Json, RoundTripComplexDocument) {
  JsonObject o;
  o["name"] = Json("ednsm");
  o["count"] = Json(75);
  o["rate"] = Json(0.0575);
  o["ok"] = Json(true);
  o["tags"] = Json(JsonArray{Json("doh"), Json("dot"), Json("do53")});
  JsonObject nested;
  nested["x"] = Json(nullptr);
  o["meta"] = Json(std::move(nested));
  const Json original{std::move(o)};

  for (int indent : {0, 2, 4}) {
    auto round = Json::parse(original.dump(indent));
    ASSERT_TRUE(round.has_value());
    EXPECT_EQ(round.value(), original);
  }
}

TEST(Json, NumberPrecisionRoundTrips) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-12, 123456789.123456, 5e15};
  for (double v : values) {
    auto parsed = Json::parse(Json(v).dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed.value().as_number(), v);
  }
}

TEST(Json, TypePredicates) {
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(1.0).is_number());
  EXPECT_TRUE(Json("s").is_string());
  EXPECT_TRUE(Json(JsonArray{}).is_array());
  EXPECT_TRUE(Json(JsonObject{}).is_object());
  EXPECT_FALSE(Json(1.0).is_string());
}

TEST(Json, AtOnNonObjectReturnsNull) {
  EXPECT_TRUE(Json(5).at("k").is_null());
}

// ---- JsonWriter --------------------------------------------------------------

// The number format Json has always used, spelled with printf: NaN/Inf are
// null, integral values below 1e15 print as "%.0f", everything else "%.17g".
std::string printf_reference(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  char buf[64];
  const bool integral = d == std::floor(d) && std::abs(d) < 1e15;
  std::snprintf(buf, sizeof buf, integral ? "%.0f" : "%.17g", d);
  return buf;
}

TEST(JsonWriter, NumbersMatchPrintfReference) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -42.0,
                           1e15 - 1,
                           1e15,
                           -1e15,
                           0.1,
                           1.0 / 3.0,
                           5e-324,
                           2.2250738585072014e-308,
                           1e300,
                           -1e300,
                           123456789.123456,
                           std::numeric_limits<double>::max(),
                           std::nan(""),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double d : values) {
    JsonWriter w;
    w.value(d);
    EXPECT_EQ(std::move(w).take(), printf_reference(d)) << d;
  }
  EXPECT_EQ(printf_reference(-0.0), "-0");
  EXPECT_EQ(printf_reference(1e15), "1000000000000000");
  EXPECT_EQ(printf_reference(std::nan("")), "null");
}

// shortest() prints the fewest digits that parse back to the same double.
TEST(JsonWriter, ShortestNumbersRoundTripExactly) {
  const double values[] = {0.0,    -0.0,  1.0,   29.708, 0.1,    1.0 / 3.0, 5e-324,
                           1e15,   1e300, -1e300, 123456789.123456,
                           std::numeric_limits<double>::max()};
  for (const double d : values) {
    JsonWriter w;
    w.shortest(d);
    const std::string text = std::move(w).take();
    const auto back = Json::parse(text);
    ASSERT_TRUE(back) << text;
    EXPECT_EQ(back.value().as_number(), d) << text;
    EXPECT_EQ(std::signbit(back.value().as_number()), std::signbit(d)) << text;
    EXPECT_LE(text.size(), printf_reference(d).size()) << text;
  }
  const auto shortest = [](double d) {
    JsonWriter w;
    w.shortest(d);
    return std::move(w).take();
  };
  EXPECT_EQ(shortest(29.708), "29.708");
  EXPECT_EQ(printf_reference(29.708), "29.707999999999998");
  EXPECT_EQ(shortest(0.0), "0");
  EXPECT_EQ(shortest(25.0), "25");
  EXPECT_EQ(shortest(std::nan("")), "null");
  EXPECT_EQ(shortest(std::numeric_limits<double>::infinity()), "null");
}

// Integer overloads convert to double first, like the Json constructors, so
// a uint64 above 2^53 prints as its nearest double.
TEST(JsonWriter, IntegersConvertLikeJsonConstructors) {
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  const std::int64_t negative = -(std::int64_t{1} << 60) - 1;
  JsonWriter w;
  w.begin_array().value(7).value(big).value(negative).value(std::uint64_t{1} << 63).end_array();
  const Json dom(JsonArray{Json(7), Json(big), Json(negative), Json(std::uint64_t{1} << 63)});
  const std::string bytes = std::move(w).take();
  EXPECT_EQ(bytes, dom.dump());
  EXPECT_EQ(bytes, "[7,9007199254740992," + printf_reference(static_cast<double>(negative)) + "," +
                       printf_reference(static_cast<double>(std::uint64_t{1} << 63)) + "]");
}

TEST(JsonWriter, ControlCharactersEscapeAsU00XX) {
  std::string raw;
  std::string expected = "\"";
  for (int c = 0; c < 0x20; ++c) {
    raw.push_back(static_cast<char>(c));
    switch (c) {
      case '\b': expected += "\\b"; break;
      case '\f': expected += "\\f"; break;
      case '\n': expected += "\\n"; break;
      case '\r': expected += "\\r"; break;
      case '\t': expected += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        expected += buf;
      }
    }
  }
  raw += "\"\\ plain \x7f \xc3\xa9";  // quote, backslash, DEL and UTF-8 pass through
  expected += "\\\"\\\\ plain \x7f \xc3\xa9\"";
  JsonWriter w;
  w.value(raw);
  EXPECT_EQ(std::move(w).take(), expected);
  EXPECT_EQ(Json(raw).dump(), expected);
  // Keys are escaped the same way.
  JsonWriter k;
  k.begin_object().key("a\x1f").value(nullptr).end_object();
  EXPECT_EQ(std::move(k).take(), "{\"a\\u001f\":null}");
}

TEST(JsonWriter, CompactAndPrettyLayout) {
  auto write = [](int indent) {
    JsonWriter w(indent);
    w.begin_object();
    w.key("a").value(1);
    w.key("b").begin_array().value("x").value(true).value(nullptr).end_array();
    w.key("c").begin_object().key("d").value(2.5).end_object();
    w.end_object();
    return std::move(w).take();
  };
  EXPECT_EQ(write(0), R"({"a":1,"b":["x",true,null],"c":{"d":2.5}})");
  EXPECT_EQ(write(2),
            "{\n"
            "  \"a\": 1,\n"
            "  \"b\": [\n"
            "    \"x\",\n"
            "    true,\n"
            "    null\n"
            "  ],\n"
            "  \"c\": {\n"
            "    \"d\": 2.5\n"
            "  }\n"
            "}");
  // Same bytes as dumping the equivalent document.
  const Json dom = Json::parse(write(0)).value();
  EXPECT_EQ(write(0), dom.dump(0));
  EXPECT_EQ(write(2), dom.dump(2));
}

TEST(JsonWriter, EmptyContainers) {
  for (const int indent : {0, 2}) {
    JsonWriter obj(indent);
    obj.begin_object().end_object();
    EXPECT_EQ(std::move(obj).take(), "{}");
    JsonWriter arr(indent);
    arr.begin_array().end_array();
    EXPECT_EQ(std::move(arr).take(), "[]");
  }
  JsonWriter nested(2);
  nested.begin_object();
  nested.key("a").begin_array().end_array();
  nested.key("b").begin_object().end_object();
  nested.key("c").begin_array().begin_array().end_array().end_array();
  nested.end_object();
  EXPECT_EQ(std::move(nested).take(),
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    []\n  ]\n}");
}

// A spliced document subtree lands at the writer's depth with the writer's
// indentation, byte-identical to dumping one document that contains it.
TEST(JsonWriter, SplicesDomAtDepth) {
  JsonObject inner;
  inner["list"] = Json(JsonArray{Json(1), Json(JsonObject{}), Json("s")});
  inner["empty"] = Json(JsonArray{});
  const Json subtree(std::move(inner));

  JsonObject outer;
  outer["items"] = Json(JsonArray{Json(0), subtree});
  outer["z"] = Json(false);
  const Json whole(std::move(outer));

  for (const int indent : {0, 2, 4}) {
    JsonWriter w(indent);
    w.begin_object();
    w.key("items").begin_array().value(0).value(subtree).end_array();
    w.key("z").value(false);
    w.end_object();
    EXPECT_EQ(std::move(w).take(), whole.dump(indent)) << "indent " << indent;
  }
}

// A writer on a stream hands its buffer over once it passes kFlushBytes, so
// bytes reach the stream before the document ends, and the concatenation is
// exactly what a buffer-only writer produces.
TEST(JsonWriter, StreamReceivesBytesPastFlushThreshold) {
  const std::string chunk(1000, 'x');
  std::ostringstream os;
  JsonWriter streamed(os, 2);
  JsonWriter buffered(2);
  streamed.begin_array();
  buffered.begin_array();
  std::size_t written_before_end = 0;
  for (int i = 0; i < 200; ++i) {
    streamed.value(chunk);
    buffered.value(chunk);
    written_before_end = os.str().size();
  }
  streamed.end_array();
  buffered.end_array();
  EXPECT_GE(written_before_end, JsonWriter::kFlushBytes);
  EXPECT_LT(written_before_end, 200 * chunk.size());
  streamed.flush();
  EXPECT_EQ(os.str(), std::move(buffered).take());
}

// ---- JsonFields --------------------------------------------------------------

Json parse_ok(std::string_view text) {
  auto j = Json::parse(text);
  if (!j) throw std::logic_error(j.error());
  return std::move(j).value();
}

struct Inner {
  int n = 0;
  static Result<Inner> from_json(const Json& j) {
    Inner in;
    JsonFields f(j, "inner");
    f.required("n", in.n);
    return f.result(in);
  }
};

TEST(JsonFields, AbsentAndNullKeepDefaults) {
  int a = 5;
  double b = 1.5;
  std::string c = "keep";
  std::optional<int> d;
  const Json j = parse_ok(R"({"b": null})");
  JsonFields f(j, "thing");
  f.optional("a", a).optional("b", b).optional("c", c).optional("d", d);
  ASSERT_TRUE(f) << f.error();
  EXPECT_EQ(a, 5);
  EXPECT_EQ(b, 1.5);
  EXPECT_EQ(c, "keep");
  EXPECT_FALSE(d.has_value());
}

TEST(JsonFields, ReadsEveryKind) {
  const Json j = parse_ok(
      R"({"b": true, "d": 2.5, "s": "x", "u": 18446744073709549568, "i": -2147483648,
          "v": ["p", "q"], "t": ["k", 3], "in": {"n": 4}, "ins": [{"n": 1}, {"n": 2}],
          "o": 9})");
  bool b = false;
  double d = 0;
  std::string s;
  std::uint64_t u = 0;
  int i = 0;
  std::vector<std::string> v = {"default"};
  std::pair<std::string, std::uint8_t> t;
  Inner in;
  std::vector<Inner> ins;
  std::optional<std::int64_t> o;
  JsonFields f(j, "thing");
  f.required("b", b).required("d", d).required("s", s).required("u", u).required("i", i);
  f.required("v", v).required("t", t).required("in", in).required("ins", ins).optional("o", o);
  ASSERT_TRUE(f) << f.error();
  EXPECT_TRUE(b);
  EXPECT_EQ(d, 2.5);
  EXPECT_EQ(s, "x");
  EXPECT_EQ(u, 18446744073709549568ull);  // the largest double below 2^64
  EXPECT_EQ(i, std::numeric_limits<int>::min());
  EXPECT_EQ(v, (std::vector<std::string>{"p", "q"}));
  EXPECT_EQ(t, (std::pair<std::string, std::uint8_t>{"k", 3}));
  EXPECT_EQ(in.n, 4);
  ASSERT_EQ(ins.size(), 2u);
  EXPECT_EQ(ins[1].n, 2);
  EXPECT_EQ(o, 9);
}

TEST(JsonFields, ErrorsNameObjectAndKey) {
  const auto first_error = [](std::string_view text, auto read) {
    const Json j = parse_ok(text);
    JsonFields f(j, "thing");
    read(f);
    EXPECT_FALSE(f);
    return f.error();
  };
  int n = 0;
  std::string s;
  std::vector<int> v;
  std::tuple<int, int> t;
  Inner in;
  EXPECT_EQ(first_error("{}", [&](JsonFields& f) { f.required("n", n); }), "thing: missing n");
  EXPECT_EQ(first_error(R"({"n": null})", [&](JsonFields& f) { f.required("n", n); }),
            "thing: missing n");
  EXPECT_EQ(first_error(R"({"n": "1"})", [&](JsonFields& f) { f.optional("n", n); }),
            "thing: n must be a number");
  EXPECT_EQ(first_error(R"({"n": 1e300})", [&](JsonFields& f) { f.optional("n", n); }),
            "thing: n must be an integer in range");
  EXPECT_EQ(first_error(R"({"n": 0.5})", [&](JsonFields& f) { f.optional("n", n); }),
            "thing: n must be an integer in range");
  EXPECT_EQ(first_error(R"({"s": 1})", [&](JsonFields& f) { f.optional("s", s); }),
            "thing: s must be a string");
  EXPECT_EQ(first_error(R"({"v": [1, null]})", [&](JsonFields& f) { f.optional("v", v); }),
            "thing: v[1] must be a number");
  EXPECT_EQ(first_error(R"({"t": [1]})", [&](JsonFields& f) { f.optional("t", t); }),
            "thing: t must be an array of 2");
  EXPECT_EQ(first_error(R"({"t": [1, -1e300]})", [&](JsonFields& f) { f.optional("t", t); }),
            "thing: t[1] must be an integer in range");
  EXPECT_EQ(first_error(R"({"in": {"n": true}})", [&](JsonFields& f) { f.optional("in", in); }),
            "thing: in: inner: n must be a number");
  EXPECT_EQ(first_error("[]", [&](JsonFields& f) { f.optional("n", n); }),
            "thing: not an object");
}

TEST(JsonFields, FirstErrorSticks) {
  int a = 1;
  int b = 2;
  const Json j = parse_ok(R"({"a": "x", "b": 7})");
  JsonFields f(j, "thing");
  f.optional("a", a).optional("b", b).required("c", a);
  EXPECT_EQ(f.error(), "thing: a must be a number");
  EXPECT_EQ(b, 2);  // reads after the error do nothing
  EXPECT_FALSE(f.result(0).has_value());
}

TEST(JsonFields, NestedObjectReportsIntoParent) {
  std::size_t k = 0;
  std::size_t n = 0;
  {
    const Json j = parse_ok(R"({"slice": {"k": 1, "n": 3}})");
    JsonFields f(j, "file");
    JsonFields slice = f.object("slice");
    slice.required("k", k).required("n", n);
    ASSERT_TRUE(f) << f.error();
    EXPECT_EQ(k, 1u);
    EXPECT_EQ(n, 3u);
  }
  {
    const Json j = parse_ok(R"({"slice": {"k": -1}})");
    JsonFields f(j, "file");
    JsonFields slice = f.object("slice");
    slice.required("k", k);
    EXPECT_EQ(f.error(), "file: slice: k must be an integer in range");
  }
  {
    const Json j = parse_ok("{}");
    JsonFields f(j, "file");
    JsonFields slice = f.object("slice");
    slice.optional("k", k);
    EXPECT_TRUE(f);  // an absent object reads as one with no fields
    slice.required("n", n);
    EXPECT_EQ(f.error(), "file: slice: missing n");
  }
  {
    const Json j = parse_ok(R"({"slice": 4})");
    JsonFields f(j, "file");
    JsonFields slice = f.object("slice");
    EXPECT_EQ(f.error(), "file: slice must be an object");
  }
}

TEST(JsonFields, DecodeCallbackElements) {
  const auto shout = [](const Json& e) -> Result<std::string> {
    if (!e.is_string()) return Err{std::string("not a word")};
    return e.as_string() + "!";
  };
  std::vector<std::string> words;
  const Json ok_json = parse_ok(R"({"xs": ["a", "b"]})");
  JsonFields ok(ok_json, "thing");
  ok.required("xs", words, shout);
  ASSERT_TRUE(ok) << ok.error();
  EXPECT_EQ(words, (std::vector<std::string>{"a!", "b!"}));
  const Json bad_json = parse_ok(R"({"xs": ["a", 3]})");
  JsonFields bad(bad_json, "thing");
  bad.required("xs", words, shout);
  EXPECT_EQ(bad.error(), "thing: xs[1]: not a word");
}

TEST(Json, QuoteMatchesWriterEscaping) {
  const std::string raw = std::string("a\"b\\c\n\x01\x1f") + "\b\f";
  EXPECT_EQ(json_quote(raw), Json(raw).dump());
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
}

}  // namespace
}  // namespace ednsm::util
