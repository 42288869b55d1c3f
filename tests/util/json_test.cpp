#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace fmtree::json {
namespace {

using Wrap = Writer::Wrap;

TEST(Json, EscapeControlCharacters) {
  EXPECT_EQ(escape("a\nb\tc\\d\"e"), "a\\nb\\tc\\\\d\\\"e");
  EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, AsU64DecodesWholeDecimalsExactly) {
  EXPECT_EQ(parse("9007199254740993").as_u64(), 9007199254740993ull);
  EXPECT_EQ(parse("18446744073709551615").as_u64(), 18446744073709551615ull);
  for (const char* bad : {"18446744073709551616", "-1", "1.0", "1e3"})
    EXPECT_THROW(parse(bad).as_u64(), IoError) << bad;
}

TEST(JsonWriter, SpacedLayoutPutsBlockMembersOnTheirOwnLines) {
  Writer w(Writer::Layout::Spaced);
  w.begin_object(Wrap::Block);
  w.key("name").string("x");
  w.key("list").begin_array();
  w.integer(1).integer(-2).boolean(true).token("null");
  w.end_array();
  w.key("inner").begin_object(Wrap::Block);
  w.key("point").begin_object();
  w.key("a").integer(3u);
  w.key("b").boolean(false);
  w.end_object();
  w.end_object();
  w.key("empty_block").begin_array(Wrap::Block).end_array();
  w.key("empty_inline").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"list\": [1, -2, true, null],\n"
            "  \"inner\": {\n"
            "    \"point\": {\"a\": 3, \"b\": false}\n"
            "  },\n"
            "  \"empty_block\": [],\n"
            "  \"empty_inline\": {}\n"
            "}");
}

TEST(JsonWriter, CompactLayoutIgnoresBlockWrapping) {
  Writer w(Writer::Layout::Compact);
  w.begin_object(Wrap::Block);
  w.key("a").begin_array(Wrap::Block);
  w.integer(1).string("two");
  w.begin_object().key("k").hexfloat(1.5).end_object();
  w.end_array();
  w.key("b").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(w.take(), R"({"a":[1,"two",{"k":"0x1.8p+0"}],"b":[]})");
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  Writer w(Writer::Layout::Compact);
  w.begin_object();
  w.key("k\"ey\\").string(std::string("tab\there\nnul\x1f"));
  w.end_object();
  const std::string text = w.take();
  EXPECT_EQ(text, R"({"k\"ey\\":"tab\there\nnul\u001f"})");
  const Value doc = parse(text);
  ASSERT_EQ(doc.members.size(), 1u);
  EXPECT_EQ(doc.members[0].first, "k\"ey\\");
  EXPECT_EQ(doc.members[0].second.text, std::string("tab\there\nnul\x1f"));
}

TEST(JsonWriter, HexfloatRoundTripsEveryBitPattern) {
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min() / 3,
                           inf,
                           -inf,
                           0.1 + 0.2};
  Writer w(Writer::Layout::Compact);
  w.begin_array();
  for (const double v : values) w.hexfloat(v);
  w.end_array();
  const Value doc = parse(w.take());
  ASSERT_EQ(doc.items.size(), std::size(values));
  for (std::size_t i = 0; i < doc.items.size(); ++i) {
    ASSERT_TRUE(doc.items[i].is(Kind::String));
    const std::optional<double> back = parse_hexfloat(doc.items[i].text);
    ASSERT_TRUE(back.has_value()) << doc.items[i].text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back), std::bit_cast<std::uint64_t>(values[i]))
        << doc.items[i].text;
  }
}

TEST(JsonWriter, ParseHexfloatRejectsPartialTokens) {
  EXPECT_EQ(parse_hexfloat("0x1.8p+1"), 3.0);
  EXPECT_EQ(parse_hexfloat("2.5"), 2.5);
  EXPECT_FALSE(parse_hexfloat("").has_value());
  EXPECT_FALSE(parse_hexfloat("0x1p+0 ").has_value());
  EXPECT_FALSE(parse_hexfloat("abc").has_value());
}

}  // namespace
}  // namespace fmtree::json
