// Unit tests for src/trace: dictionary, sequences, database, IO round
// trips, stats.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "src/trace/csv_trace_reader.h"
#include "src/trace/database_stats.h"
#include "src/trace/event_dictionary.h"
#include "src/trace/sequence_database.h"
#include "src/trace/trace_io.h"

namespace specmine {
namespace {

TEST(EventDictionaryTest, InternAssignsDenseIdsInOrder) {
  EventDictionary dict;
  EXPECT_EQ(dict.Intern("lock"), 0u);
  EXPECT_EQ(dict.Intern("unlock"), 1u);
  EXPECT_EQ(dict.Intern("lock"), 0u);  // Idempotent.
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Name(0), "lock");
  EXPECT_EQ(dict.Name(1), "unlock");
}

TEST(EventDictionaryTest, LookupMissReturnsInvalid) {
  EventDictionary dict;
  dict.Intern("a");
  EXPECT_EQ(dict.Lookup("a"), 0u);
  EXPECT_EQ(dict.Lookup("zz"), kInvalidEvent);
}

TEST(EventDictionaryTest, NameOrPlaceholderForUnknownIds) {
  EventDictionary dict;
  dict.Intern("a");
  EXPECT_EQ(dict.NameOrPlaceholder(0), "a");
  EXPECT_EQ(dict.NameOrPlaceholder(17), "<ev17>");
}

TEST(SequenceTest, BasicAccessors) {
  Sequence s{1, 2, 1};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[2], 1u);
  s.Append(9);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s[3], 9u);
  EXPECT_TRUE(Sequence().empty());
}

TEST(SequenceDatabaseTest, AddTraceInternsNames) {
  SequenceDatabaseBuilder builder;
  SeqId id = builder.AddTrace({"a", "b", "a"});
  EXPECT_EQ(id, 0u);
  SequenceDatabase db = builder.Build();
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db[0].size(), 3u);
  EXPECT_EQ(db[0][0], db[0][2]);
  EXPECT_EQ(db.dictionary().size(), 2u);
  EXPECT_EQ(db.TotalEvents(), 3u);
}

TEST(SequenceDatabaseTest, AddTraceFromString) {
  SequenceDatabaseBuilder builder;
  builder.AddTraceFromString("  lock   use unlock ");
  SequenceDatabase db = builder.Build();
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db[0].size(), 3u);
  EXPECT_EQ(db.dictionary().Name(db[0][0]), "lock");
  EXPECT_EQ(db.dictionary().Name(db[0][2]), "unlock");
}

TEST(SequenceDatabaseTest, ColumnarLayoutIsContiguous) {
  SequenceDatabaseBuilder builder;
  builder.AddSequence({0, 1, 0});
  builder.AddSequence({2});
  builder.AddSequence({1, 2});
  SequenceDatabase db = builder.Build();
  // One flat arena delimited by CSR offsets — the whole point of the
  // columnar refactor and the invariant the binary format serializes.
  ASSERT_TRUE(db.owns_storage());
  EXPECT_EQ(db.offsets()[0], 0u);
  EXPECT_EQ(db.offsets()[1], 3u);
  EXPECT_EQ(db.offsets()[2], 4u);
  EXPECT_EQ(db.offsets()[3], 6u);
  const std::vector<EventId> arena(db.arena(), db.arena() + db.TotalEvents());
  EXPECT_EQ(arena, (std::vector<EventId>{0, 1, 0, 2, 1, 2}));
  // Spans are views straight into the arena, not copies.
  EXPECT_EQ(db[1].data(), db.arena() + 3);
}

TEST(SequenceDatabaseTest, AtIsBoundsChecked) {
  SequenceDatabaseBuilder builder;
  builder.AddSequence({0, 1});
  SequenceDatabase db = builder.Build();
  Result<EventSpan> good = db.at(0);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), 2u);
  Result<EventSpan> bad = db.at(1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(bad.status().message().find("1"), std::string::npos);
}

TEST(SequenceDatabaseTest, IterationYieldsSpansInOrder) {
  SequenceDatabaseBuilder builder;
  builder.AddSequence({4, 5});
  builder.AddSequence({});
  builder.AddSequence({6});
  SequenceDatabase db = builder.Build();
  std::vector<size_t> sizes;
  for (EventSpan seq : db) sizes.push_back(seq.size());
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 0, 1}));
}

TEST(SequenceDatabaseTest, MoveAndCopyPreserveContents) {
  SequenceDatabaseBuilder builder;
  builder.AddTrace({"a", "b"});
  builder.AddTrace({"b", "c", "b"});
  SequenceDatabase db = builder.Build();
  SequenceDatabase copy = db;            // Deep copy of the arena.
  SequenceDatabase moved = std::move(db);
  ASSERT_EQ(copy.size(), 2u);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(copy[1], moved[1]);
  EXPECT_NE(copy.arena(), moved.arena());  // Separate owned storage.
  EXPECT_EQ(copy.dictionary().size(), 3u);
}

TEST(SequenceDatabaseBuilderTest, BuildResetsTheBuilder) {
  SequenceDatabaseBuilder builder;
  builder.AddTraceFromString("a b");
  SequenceDatabase first = builder.Build();
  EXPECT_EQ(builder.size(), 0u);
  EXPECT_EQ(builder.TotalEvents(), 0u);
  builder.AddTraceFromString("c");
  SequenceDatabase second = builder.Build();
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(first.TotalEvents(), 2u);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_EQ(second.TotalEvents(), 1u);
}

TEST(EventSpanTest, EqualityAndSubspan) {
  const std::vector<EventId> v{1, 2, 3, 2};
  EventSpan span(v);
  EXPECT_EQ(span, EventSpan(v.data(), v.size()));
  EXPECT_NE(span, span.subspan(1, 3));
  EXPECT_EQ(span.subspan(1, 2), EventSpan(v.data() + 1, 2));
  EXPECT_EQ(span, Sequence({1, 2, 3, 2}));  // Sequence interop.
  EXPECT_EQ(span.front(), 1u);
  EXPECT_EQ(span.back(), 2u);
}

SequenceDatabase MakeDb() {
  SequenceDatabaseBuilder db;
  db.AddTraceFromString("a b a c a");
  db.AddTraceFromString("b b c");
  db.AddTraceFromString("c");
  return db.Build();
}

TEST(TraceIoTest, TextRoundTrip) {
  SequenceDatabase db = MakeDb();
  std::ostringstream out;
  ASSERT_TRUE(WriteTextTraces(db, out).ok());
  std::istringstream in(out.str());
  Result<SequenceDatabase> rt = ReadTextTraces(in);
  ASSERT_TRUE(rt.ok());
  ASSERT_EQ(rt->size(), db.size());
  for (SeqId s = 0; s < db.size(); ++s) {
    ASSERT_EQ((*rt)[s].size(), db[s].size());
    for (Pos p = 0; p < db[s].size(); ++p) {
      EXPECT_EQ(rt->dictionary().Name((*rt)[s][p]),
                db.dictionary().Name(db[s][p]));
    }
  }
}

TEST(TraceIoTest, TextReaderSkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n a b \n# mid\nc\n");
  Result<SequenceDatabase> db = ReadTextTraces(in);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 2u);
  EXPECT_EQ((*db)[0].size(), 2u);
  EXPECT_EQ((*db)[1].size(), 1u);
}

TEST(TraceIoTest, ReadMissingFileFails) {
  Result<SequenceDatabase> r = ReadTextTraceFile("/nonexistent/file.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(TraceIoTest, SpmRoundTripPreservesIds) {
  SequenceDatabase db = MakeDb();
  std::ostringstream out;
  ASSERT_TRUE(WriteSpmTraces(db, out).ok());
  std::istringstream in(out.str());
  Result<SequenceDatabase> rt = ReadSpmTraces(in);
  ASSERT_TRUE(rt.ok());
  ASSERT_EQ(rt->size(), db.size());
  for (SeqId s = 0; s < db.size(); ++s) {
    EXPECT_EQ((*rt)[s], db[s]);  // Ids are preserved exactly.
  }
  EXPECT_EQ(rt->dictionary().size(), db.dictionary().size());
}

TEST(TraceIoTest, SpmRejectsMissingHeader) {
  std::istringstream in("!events 1\na\n");
  EXPECT_FALSE(ReadSpmTraces(in).ok());
}

TEST(TraceIoTest, SpmRejectsOutOfRangeId) {
  std::istringstream in("!specmine-traces v1\n!events 1\na\n!trace 1 5\n");
  Result<SequenceDatabase> r = ReadSpmTraces(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(TraceIoTest, SpmRejectsLengthMismatch) {
  std::istringstream in("!specmine-traces v1\n!events 1\na\n!trace 2 0\n");
  EXPECT_FALSE(ReadSpmTraces(in).ok());
}

TEST(DatabaseStatsTest, ComputesShape) {
  SequenceDatabase db = MakeDb();
  DatabaseStats st = ComputeStats(db);
  EXPECT_EQ(st.num_sequences, 3u);
  EXPECT_EQ(st.num_distinct_events, 3u);
  EXPECT_EQ(st.total_events, 9u);
  EXPECT_EQ(st.min_length, 1u);
  EXPECT_EQ(st.max_length, 5u);
  EXPECT_DOUBLE_EQ(st.avg_length, 3.0);
  EXPECT_NE(st.ToString().find("3 sequences"), std::string::npos);
}

TEST(CsvTraceReaderTest, GroupsRowsIntoSequences) {
  std::istringstream in("# comment\nt1,lock\nt2,open\nt1,unlock\nt2,close\n");
  Result<SequenceDatabase> db = ReadCsvTraces(in, CsvTraceOptions{});
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 2u);
  EXPECT_EQ((*db)[0].size(), 2u);  // t1 in first-appearance order.
  EXPECT_EQ(db->dictionary().Name((*db)[0][0]), "lock");
  EXPECT_EQ(db->dictionary().Name((*db)[1][1]), "close");
}

TEST(CsvTraceReaderTest, StrictModeReportsOffendingLineNumber) {
  // Line 1 is a comment, lines 2-3 are fine, line 4 has one column.
  std::istringstream in("# instrumented\nt1,lock\nt1,unlock\nbroken-row\n");
  Result<SequenceDatabase> db = ReadCsvTraces(in, CsvTraceOptions{});
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kParseError);
  EXPECT_NE(db.status().message().find("line 4"), std::string::npos);
  EXPECT_NE(db.status().message().find("broken-row"), std::string::npos);
  EXPECT_NE(db.status().message().find("columns"), std::string::npos);
}

TEST(CsvTraceReaderTest, StrictModeReportsEmptyEventField) {
  std::istringstream in("t1,lock\nt1,\n");
  Result<SequenceDatabase> db = ReadCsvTraces(in, CsvTraceOptions{});
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kParseError);
  EXPECT_NE(db.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(db.status().message().find("event"), std::string::npos);
}

TEST(CsvTraceReaderTest, NonStrictModeSkipsMalformedRows) {
  std::istringstream in("t1,lock\nbroken-row\nt1,unlock\n");
  CsvTraceOptions options;
  options.strict = false;
  Result<SequenceDatabase> db = ReadCsvTraces(in, options);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 1u);
  EXPECT_EQ((*db)[0].size(), 2u);
}

TEST(DatabaseStatsTest, EmptyDatabase) {
  SequenceDatabase db;
  DatabaseStats st = ComputeStats(db);
  EXPECT_EQ(st.num_sequences, 0u);
  EXPECT_EQ(st.total_events, 0u);
  EXPECT_EQ(st.min_length, 0u);
  EXPECT_DOUBLE_EQ(st.avg_length, 0.0);
}

}  // namespace
}  // namespace specmine
