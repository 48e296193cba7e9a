// json_quote() against its inverse, parse_json(): the string writer every
// JSON artifact (log lines, metrics, traces, journals, speedscope profiles)
// goes through.
#include "support/json.h"

#include <gtest/gtest.h>

#include <string>

namespace fpgadbg::support {
namespace {

TEST(Json, QuoteRoundTripsEveryAsciiCodePoint) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(parse_json(json_quote(one)).str, one) << "code point " << c;
    all += one;
  }
  all += "\"\\";
  const JsonValue doc = parse_json(json_quote(all));
  ASSERT_TRUE(doc.is_string());
  EXPECT_EQ(doc.str, all);
}

TEST(Json, QuoteUsesShortEscapesAndLowercaseHex) {
  EXPECT_EQ(json_quote(""), "\"\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("\n\r\t"), "\"\\n\\r\\t\"");
  EXPECT_EQ(json_quote(std::string("\x00\x01\x1f", 3)),
            "\"\\u0000\\u0001\\u001f\"");
  // Bytes from 0x20 up, including '/' and DEL, pass through unescaped.
  EXPECT_EQ(json_quote("/\x7f"), "\"/\x7f\"");
}

}  // namespace
}  // namespace fpgadbg::support
