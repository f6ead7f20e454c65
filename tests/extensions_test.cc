// Tests for the future-work extensions (paper Section 8): iterative
// pattern generators, backward recurrent rules, pattern/rule ranking, and
// the CSV trace reader.

#include <gtest/gtest.h>

#include <sstream>

#include "src/engine/engine.h"
#include "src/itermine/generators.h"
#include "src/itermine/qre_verifier.h"
#include "src/rulemine/backward_rules.h"
#include "src/specmine/ranking.h"
#include "src/support/strings.h"
#include "src/trace/csv_trace_reader.h"

namespace specmine {
namespace {

SequenceDatabase MakeDb(const std::vector<std::string>& traces) {
  SequenceDatabaseBuilder db;
  for (const auto& t : traces) db.AddTraceFromString(t);
  return db.Build();
}

Pattern P(const SequenceDatabase& db, const std::string& names) {
  Pattern p;
  for (const auto& tok : SplitAndTrim(names, ' ')) {
    EventId id = db.dictionary().Lookup(tok);
    EXPECT_NE(id, kInvalidEvent) << tok;
    p = p.Extend(id);
  }
  return p;
}

// Runs \p task in a fresh Engine session over a copy of \p db, failing
// the test on an error Status.
template <typename Task>
PatternSet Collect(const SequenceDatabase& db, const Task& task) {
  Result<PatternSet> mined = Engine(db).CollectPatterns(task);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  return mined.ok() ? mined.TakeValueOrDie() : PatternSet{};
}

// ---------------------------------------------------------------------------
// Iterative generators.

TEST(IterGeneratorsTest, SingletonsAreGenerators) {
  SequenceDatabase db = MakeDb({"a b a b"});
  IterGeneratorMinerOptions options;
  options.min_support = 1;
  PatternSet gens = Collect(db, GeneratorsTask{.options = options});
  EXPECT_TRUE(gens.Contains(P(db, "a")));
  EXPECT_TRUE(gens.Contains(P(db, "b")));
}

TEST(IterGeneratorsTest, EqualSupportExtensionIsNotGenerator) {
  // Every a is immediately followed by b and vice versa: sup(<a, b>) ==
  // sup(<a>) == sup(<b>) == 2, so <a, b> is not a generator.
  SequenceDatabase db = MakeDb({"a b x a b"});
  IterGeneratorMinerOptions options;
  options.min_support = 1;
  PatternSet gens = Collect(db, GeneratorsTask{.options = options});
  EXPECT_TRUE(gens.Contains(P(db, "a")));
  EXPECT_FALSE(gens.Contains(P(db, "a b")));
  PositionIndex index(db);
  EXPECT_FALSE(IsIterativeGenerator(CountingBackend(index), P(db, "a b"), 2));
}

TEST(IterGeneratorsTest, LowerSupportExtensionIsGenerator) {
  // sup(<a>) = 3, sup(<b>) = 3 (extra trace), sup(<a, b>) = 2: both
  // one-event deletions have strictly larger support, so the pair carries
  // information of its own.
  SequenceDatabase db = MakeDb({"a b a b a", "b"});
  IterGeneratorMinerOptions options;
  options.min_support = 1;
  PatternSet gens = Collect(db, GeneratorsTask{.options = options});
  EXPECT_TRUE(gens.Contains(P(db, "a b")));
}

TEST(IterGeneratorsTest, GeneratorsAndClosedPartitionEvidence) {
  // Every frequent pattern's support must be witnessed by some generator
  // with the same support that is a subsequence of it (the equivalence-
  // class reading: generators are the minimal members).
  SequenceDatabase db = MakeDb({"a b c a b", "b a c b a", "c a b c"});
  const uint64_t min_sup = 2;
  IterGeneratorMinerOptions options;
  options.min_support = min_sup;
  PatternSet gens = Collect(db, GeneratorsTask{.options = options});
  // Spot-check on all frequent patterns up to length 3.
  for (const auto& item : gens.items()) {
    EXPECT_EQ(item.support, CountInstances(item.pattern, db));
  }
  IterMinerOptions full_options;
  full_options.min_support = min_sup;
  full_options.max_length = 3;
  PatternSet full = Collect(db, FullPatternsTask{.options = full_options});
  for (const auto& fp : full.items()) {
    bool witnessed = false;
    for (const auto& g : gens.items()) {
      if (g.support == fp.support && g.pattern.IsSubsequenceOf(fp.pattern)) {
        witnessed = true;
        break;
      }
    }
    EXPECT_TRUE(witnessed) << fp.pattern.ToString();
  }
}

// ---------------------------------------------------------------------------
// Backward rules.

TEST(BackwardRulesTest, UnlockRequiresPriorLock) {
  SequenceDatabase db = MakeDb({
      "lock use unlock",
      "x lock unlock lock y unlock",
      "lock unlock",
  });
  RuleMinerOptions options;
  options.min_s_support = 3;
  options.min_confidence = 1.0;
  options.non_redundant = false;
  RuleSet rules = MineBackwardRules(db, options);
  const Rule* r = rules.Find(P(db, "unlock"), P(db, "lock"));
  ASSERT_NE(r, nullptr) << rules.ToString(db.dictionary());
  EXPECT_DOUBLE_EQ(r->confidence(), 1.0);
  EXPECT_EQ(r->s_support, 3u);
  // i-support = occurrences of <lock, unlock>: 1 + 2 + 1.
  EXPECT_EQ(r->i_support, 4u);
}

TEST(BackwardRulesTest, ConfidenceCountsUnprecededPoints) {
  // One unlock without a prior lock.
  SequenceDatabase db = MakeDb({"unlock x lock unlock", "lock unlock"});
  RuleMinerOptions options;
  options.min_s_support = 2;
  options.min_confidence = 0.5;
  options.non_redundant = false;
  RuleSet rules = MineBackwardRules(db, options);
  const Rule* r = rules.Find(P(db, "unlock"), P(db, "lock"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->premise_points, 3u);
  EXPECT_EQ(r->satisfied_points, 2u);
}

TEST(BackwardRulesTest, StrictlyBeforeThePoint) {
  // The premise event itself cannot witness the past consequent.
  SequenceDatabase db = MakeDb({"a"});
  RuleMinerOptions options;
  options.min_s_support = 1;
  options.min_confidence = 0.1;
  options.non_redundant = false;
  RuleSet rules = MineBackwardRules(db, options);
  EXPECT_EQ(rules.Find(P(db, "a"), P(db, "a")), nullptr);
}

TEST(BackwardRulesTest, MultiEventPastConsequentKeepsOrder) {
  // Whenever commit occurs, <begin, validate> happened before, in order.
  SequenceDatabase db = MakeDb({
      "begin validate commit",
      "begin x validate y commit",
  });
  RuleMinerOptions options;
  options.min_s_support = 2;
  options.min_confidence = 1.0;
  options.non_redundant = false;
  RuleSet rules = MineBackwardRules(db, options);
  EXPECT_NE(rules.Find(P(db, "commit"), P(db, "begin validate")), nullptr);
  // The reversed order never occurs as a subsequence of the prefixes.
  EXPECT_EQ(rules.Find(P(db, "commit"), P(db, "validate begin")), nullptr);
}

TEST(BackwardRulesTest, NonRedundantSubsetWithEqualStats) {
  SequenceDatabase db = MakeDb({
      "init run stop run stop",
      "init run stop",
      "init x run y stop",
  });
  RuleMinerOptions full;
  full.min_s_support = 2;
  full.min_confidence = 0.8;
  full.non_redundant = false;
  RuleSet full_rules = MineBackwardRules(db, full);
  RuleMinerOptions nr = full;
  nr.non_redundant = true;
  RuleSet nr_rules = MineBackwardRules(db, nr);
  EXPECT_LE(nr_rules.size(), full_rules.size());
  EXPECT_GT(nr_rules.size(), 0u);
  for (const Rule& r : nr_rules.rules()) {
    const Rule* f = full_rules.Find(r.premise, r.consequent);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(*f, r);
  }
}

TEST(BackwardRulesTest, ToStringMentionsPreviously) {
  SequenceDatabase db = MakeDb({"lock unlock"});
  Rule r;
  r.premise = P(db, "unlock");
  r.consequent = P(db, "lock");
  r.s_support = 1;
  r.premise_points = 1;
  r.satisfied_points = 1;
  std::string s = BackwardRuleToString(r, db.dictionary());
  EXPECT_NE(s.find("previously"), std::string::npos);
  EXPECT_NE(s.find("<unlock>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ranking.

TEST(RankingTest, PatternsScoreBySupportTimesLength) {
  PatternSet set;
  set.Add(Pattern{1}, 100);          // Score 0 (singleton).
  set.Add(Pattern{1, 2}, 10);        // Score 10.
  set.Add(Pattern{1, 2, 3}, 8);      // Score 16.
  auto ranked = RankPatterns(set);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].item.pattern, (Pattern{1, 2, 3}));
  EXPECT_EQ(ranked[1].item.pattern, (Pattern{1, 2}));
  EXPECT_EQ(ranked[2].item.pattern, Pattern{1});
  EXPECT_DOUBLE_EQ(ranked[0].score, 16.0);
}

TEST(RankingTest, BaselineCountsRandomPositions) {
  // <b> embeds after positions 0 and 1 of "a b b" (suffixes "b b", "b"),
  // not after 2; plus trace "c": 2 of 4 positions.
  SequenceDatabase db = MakeDb({"a b b", "c"});
  EXPECT_DOUBLE_EQ(ConsequentBaseline(P(db, "b"), db), 0.5);
}

TEST(RankingTest, UbiquitousConsequentsRankLow) {
  // noise fires after everything; <shutdown> only after <init>.
  SequenceDatabase db = MakeDb({
      "init noise shutdown noise",
      "noise init noise shutdown",
      "noise noise",
  });
  RuleSet rules;
  Rule specific;
  specific.premise = P(db, "init");
  specific.consequent = P(db, "shutdown");
  specific.s_support = 2;
  specific.premise_points = 2;
  specific.satisfied_points = 2;  // conf 1.0.
  rules.Add(specific);
  Rule generic;
  generic.premise = P(db, "init");
  generic.consequent = P(db, "noise");
  generic.s_support = 2;
  generic.premise_points = 2;
  generic.satisfied_points = 2;  // Also conf 1.0.
  rules.Add(generic);
  auto ranked = RankRules(rules, db);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].rule.consequent, P(db, "shutdown"));
  EXPECT_GT(ranked[0].lift, ranked[1].lift);
}

// ---------------------------------------------------------------------------
// CSV trace reader.

TEST(CsvTraceReaderTest, GroupsByKeyInFirstAppearanceOrder) {
  std::istringstream in(
      "# instrumentation log\n"
      "t1,TxManager.begin\n"
      "t2,TxManager.begin\n"
      "t1,TxManager.commit\n"
      "t2,TxManager.rollback\n");
  Result<SequenceDatabase> db = ReadCsvTraces(in, CsvTraceOptions{});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db->size(), 2u);
  EXPECT_EQ((*db)[0].size(), 2u);
  EXPECT_EQ(db->dictionary().Name((*db)[0][1]), "TxManager.commit");
  EXPECT_EQ(db->dictionary().Name((*db)[1][1]), "TxManager.rollback");
}

TEST(CsvTraceReaderTest, CustomColumnsDelimiterAndHeader) {
  std::istringstream in(
      "ts;method;test\n"
      "1;A.f;alpha\n"
      "2;B.g;alpha\n"
      "3;A.f;beta\n");
  CsvTraceOptions options;
  options.delimiter = ';';
  options.group_column = 2;
  options.event_column = 1;
  options.has_header = true;
  Result<SequenceDatabase> db = ReadCsvTraces(in, options);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 2u);
  EXPECT_EQ((*db)[0].size(), 2u);
  EXPECT_EQ((*db)[1].size(), 1u);
}

TEST(CsvTraceReaderTest, StrictModeRejectsShortRows) {
  std::istringstream in("t1,A.f\nbroken\n");
  Result<SequenceDatabase> db = ReadCsvTraces(in, CsvTraceOptions{});
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kParseError);
  EXPECT_NE(db.status().message().find("line 2"), std::string::npos);
}

TEST(CsvTraceReaderTest, LenientModeSkipsShortRows) {
  std::istringstream in("t1,A.f\nbroken\nt1,B.g\n");
  CsvTraceOptions options;
  options.strict = false;
  Result<SequenceDatabase> db = ReadCsvTraces(in, options);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 1u);
  EXPECT_EQ((*db)[0].size(), 2u);
}

TEST(CsvTraceReaderTest, MissingFileIsIoError) {
  Result<SequenceDatabase> db =
      ReadCsvTraceFile("/no/such/file.csv", CsvTraceOptions{});
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace specmine
