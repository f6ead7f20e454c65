// Tests for the JSON layer the server and the CLI --json flag share: the
// deterministic pretty-printing writer (its formatting is an API contract
// — server/CLI byte-identity depends on it), the strict reader the
// request decoder uses, and the report object both surfaces render.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/engine/json_results.h"
#include "src/support/json_reader.h"
#include "src/support/json_writer.h"

namespace specmine {
namespace {

// ---------------------------------------------------------------------------
// Writer.

TEST(JsonWriterTest, PrettyPrintsOneFieldPerLine) {
  std::string out;
  JsonWriter writer(&out);
  writer.BeginObject();
  writer.Field("name", "demo");
  writer.Field("count", uint64_t{3});
  writer.Key("tags").BeginArray();
  writer.String("a");
  writer.String("b");
  writer.EndArray();
  writer.EndObject();
  writer.Finish();
  EXPECT_EQ(out,
            "{\n"
            "  \"name\": \"demo\",\n"
            "  \"count\": 3,\n"
            "  \"tags\": [\n"
            "    \"a\",\n"
            "    \"b\"\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, EmptyContainersStayOnOneLine) {
  std::string out;
  JsonWriter writer(&out);
  writer.BeginObject();
  writer.Key("list").BeginArray().EndArray();
  writer.Key("map").BeginObject().EndObject();
  writer.EndObject();
  writer.Finish();
  EXPECT_EQ(out, "{\n  \"list\": [],\n  \"map\": {}\n}\n");
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, DoublesRenderShortestRoundTrip) {
  EXPECT_EQ(JsonDouble(0.5), "0.5");
  EXPECT_EQ(JsonDouble(3.0), "3");
  EXPECT_EQ(JsonDouble(0.1), "0.1");
  // Non-finite values have no JSON spelling; they render as null.
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
}

// ---------------------------------------------------------------------------
// Reader.

TEST(JsonReaderTest, ParsesScalarsAndContainers) {
  Result<JsonValue> parsed = ParseJson(
      R"({"s": "x", "n": 2.5, "i": 7, "b": true, "z": null,
          "a": [1, 2], "o": {"k": "v"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = *parsed;
  EXPECT_EQ(v.Find("s")->AsString(), "x");
  EXPECT_DOUBLE_EQ(v.Find("n")->AsDouble(), 2.5);
  EXPECT_TRUE(v.Find("b")->AsBool());
  EXPECT_TRUE(v.Find("z")->is_null());
  EXPECT_EQ(v.Find("a")->AsArray().size(), 2u);
  EXPECT_EQ(v.Find("o")->Find("k")->AsString(), "v");
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonReaderTest, RoundTripsWriterOutput) {
  std::string out;
  JsonWriter writer(&out);
  writer.BeginObject();
  writer.Field("pi", 3.141592653589793);
  writer.Field("quote", "she said \"hi\"\n");
  writer.Field("big", uint64_t{9007199254740992});
  writer.EndObject();
  writer.Finish();
  Result<JsonValue> parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->Find("pi")->AsDouble(), 3.141592653589793);
  EXPECT_EQ(parsed->Find("quote")->AsString(), "she said \"hi\"\n");
  EXPECT_DOUBLE_EQ(parsed->Find("big")->AsDouble(), 9007199254740992.0);
}

TEST(JsonReaderTest, DecodesEscapesAndSurrogatePairs) {
  Result<JsonValue> parsed =
      ParseJson(R"(["Aé", "😀", "\\\"/\b\f\n\r\t"])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->AsArray()[0].AsString(), "A\xc3\xa9");
  EXPECT_EQ(parsed->AsArray()[1].AsString(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parsed->AsArray()[2].AsString(), "\\\"/\b\f\n\r\t");
}

TEST(JsonReaderTest, SyntaxErrorsNameTheOffset) {
  for (const char* bad : {"{", "[1,]", "{\"a\": }", "tru", "\"unterminated",
                          "01", "1 garbage", "{\"a\":1,}", "[1 2]"}) {
    Result<JsonValue> parsed = ParseJson(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << bad;
    EXPECT_NE(parsed.status().message().find("at byte"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(JsonReaderTest, DepthBombFailsCleanly) {
  std::string bomb(1000, '[');
  Result<JsonValue> parsed = ParseJson(bomb);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(JsonReaderTest, CheckedAccessorsDefaultAndTypeCheck) {
  Result<JsonValue> parsed =
      ParseJson(R"({"f": 0.25, "u": 3, "s": "x", "b": true})");
  ASSERT_TRUE(parsed.ok());
  double f = 1.0;
  uint64_t u = 0;
  std::string s;
  bool b = false;
  EXPECT_TRUE(parsed->GetDouble("f", &f).ok());
  EXPECT_DOUBLE_EQ(f, 0.25);
  EXPECT_TRUE(parsed->GetUint("u", &u).ok());
  EXPECT_EQ(u, 3u);
  EXPECT_TRUE(parsed->GetString("s", &s).ok());
  EXPECT_TRUE(parsed->GetBool("b", &b).ok());
  EXPECT_TRUE(b);
  // Missing members keep the caller's default.
  double untouched = 42.0;
  EXPECT_TRUE(parsed->GetDouble("absent", &untouched).ok());
  EXPECT_DOUBLE_EQ(untouched, 42.0);
  // Wrong types are InvalidArgument naming the field.
  Status wrong = parsed->GetUint("s", &u);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong.message().find("'s'"), std::string::npos);
}

TEST(JsonReaderTest, GetUintRejectsNegativeAndFractional) {
  Result<JsonValue> parsed = ParseJson(R"({"neg": -1, "frac": 1.5})");
  ASSERT_TRUE(parsed.ok());
  uint64_t u = 0;
  EXPECT_FALSE(parsed->GetUint("neg", &u).ok());
  EXPECT_FALSE(parsed->GetUint("frac", &u).ok());
}

// ---------------------------------------------------------------------------
// Results.

// The sharded candidate counters reach --json and the server, not only
// RunReport::ToString.
TEST(JsonResultsTest, RunReportCarriesShardCounters) {
  RunReport report;
  report.task = "full-patterns";
  report.shard_local_patterns = 11;
  report.shard_candidates = 7;
  report.shard_bound_skips = 3;
  report.shard_recounts = 5;
  std::string out;
  JsonWriter writer(&out);
  WriteRunReport(writer, report);
  writer.Finish();
  Result<JsonValue> parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::pair<const char*, uint64_t> want[] = {
      {"shard_local_patterns", 11},
      {"shard_candidates", 7},
      {"shard_bound_skips", 3},
      {"shard_recounts", 5}};
  for (const auto& [key, value] : want) {
    const JsonValue* field = parsed->Find(key);
    ASSERT_NE(field, nullptr) << key;
    uint64_t got = 0;
    ASSERT_TRUE(parsed->GetUint(key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key;
  }
}

// The phase-1 provenance of a sharded run (scanned vs cached shards and
// each shard's phase-1 nodes, in shard order) reaches --json and the
// server too.
TEST(JsonResultsTest, RunReportCarriesPhase1Provenance) {
  RunReport report;
  report.task = "full-patterns";
  report.shards_total = 3;
  report.shards_scanned = 1;
  report.shards_cached = 2;
  report.shard_phase1_nodes = {0, 42, 0};
  std::string out;
  JsonWriter writer(&out);
  WriteRunReport(writer, report);
  writer.Finish();
  Result<JsonValue> parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  uint64_t got = 0;
  ASSERT_TRUE(parsed->GetUint("shards_scanned", &got).ok());
  EXPECT_EQ(got, 1u);
  ASSERT_TRUE(parsed->GetUint("shards_cached", &got).ok());
  EXPECT_EQ(got, 2u);
  const JsonValue* nodes = parsed->Find("shard_phase1_nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_TRUE(nodes->is_array());
  const std::vector<JsonValue>& got_nodes = nodes->AsArray();
  ASSERT_EQ(got_nodes.size(), 3u);
  const double want[] = {0, 42, 0};
  for (size_t i = 0; i < got_nodes.size(); ++i) {
    ASSERT_TRUE(got_nodes[i].is_number()) << i;
    EXPECT_EQ(got_nodes[i].AsDouble(), want[i]) << i;
  }

  // An unsharded run renders zero counts and an empty node list.
  out.clear();
  JsonWriter empty_writer(&out);
  WriteRunReport(empty_writer, RunReport{});
  empty_writer.Finish();
  parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->GetUint("shards_scanned", &got).ok());
  EXPECT_EQ(got, 0u);
  nodes = parsed->Find("shard_phase1_nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_TRUE(nodes->is_array());
  EXPECT_TRUE(nodes->AsArray().empty());
}

}  // namespace
}  // namespace specmine
