// End-to-end integration tests: an Engine session recovers the planted
// Figure-4 pattern and Figure-5 rule from the simulated JBoss components,
// and the trace-file workflow round-trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/engine/engine.h"
#include "src/ltl/checker.h"
#include "src/ltl/parser.h"
#include "src/ltl/translate.h"
#include "src/sim/test_suite.h"

namespace specmine {
namespace {

Pattern NamesToPattern(const SequenceDatabase& db,
                       const std::vector<std::string>& names) {
  Pattern p;
  for (const auto& n : names) {
    EventId id = db.dictionary().Lookup(n);
    EXPECT_NE(id, kInvalidEvent) << n;
    p = p.Extend(id);
  }
  return p;
}

// Closed patterns at a fraction-of-sequences threshold, support sorted.
PatternSet MineClosed(const Engine& engine, double min_support_fraction,
                      size_t max_length = 0) {
  ClosedTask task;
  task.options.min_support = engine.AbsoluteSupport(min_support_fraction);
  task.options.max_length = max_length;
  Result<PatternSet> mined = engine.CollectPatterns(task);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  if (!mined.ok()) return PatternSet{};
  PatternSet out = mined.TakeValueOrDie();
  out.SortBySupport();
  return out;
}

// Recurrent rules at a fraction-of-sequences s-support threshold.
RuleSet MineRules(const Engine& engine, double min_s_support_fraction,
                  double min_confidence, bool non_redundant) {
  RulesTask task;
  task.options.min_s_support = engine.AbsoluteSupport(min_s_support_fraction);
  task.options.min_confidence = min_confidence;
  task.options.non_redundant = non_redundant;
  Result<RuleSet> mined = engine.CollectRules(task);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  if (!mined.ok()) return RuleSet{};
  RuleSet out = mined.TakeValueOrDie();
  out.SortByQuality();
  return out;
}

TEST(SpecmineIntegrationTest, AbsoluteSupportConversion) {
  SequenceDatabaseBuilder db;
  for (int i = 0; i < 100; ++i) db.AddTraceFromString("a b");
  Engine engine(db.Build());
  EXPECT_EQ(engine.AbsoluteSupport(0.5), 50u);
  EXPECT_EQ(engine.AbsoluteSupport(0.001), 1u);   // Floors at 1.
  EXPECT_EQ(engine.AbsoluteSupport(0.0), 1u);
  EXPECT_EQ(engine.AbsoluteSupport(0.255), 26u);  // Ceil.
}

TEST(SpecmineIntegrationTest, RecoversFigure4LongestPattern) {
  // The paper's transaction case study: the longest closed iterative
  // pattern over commit-only traces is the full Figure-4 protocol run.
  sim::TestSuiteOptions suite;
  suite.num_traces = 60;
  suite.min_runs_per_trace = 1;
  // At most 2 runs per trace: with more, two-run concatenations of the
  // protocol (64-event patterns spanning consecutive transactions) become
  // frequent too and legitimately outrank Figure 4 as "longest".
  suite.max_runs_per_trace = 2;
  suite.transaction.rollback_probability = 0.0;
  suite.transaction.noise_probability = 0.4;
  SequenceDatabase db = sim::GenerateTransactionTraces(suite);
  Pattern fig4 = NamesToPattern(db, sim::Figure4Pattern());

  Engine engine(std::move(db));
  PatternSet closed = MineClosed(engine, 0.9);
  ASSERT_FALSE(closed.empty());
  const MinedPattern& longest = closed.Longest();
  EXPECT_EQ(longest.pattern, fig4)
      << "longest = " << longest.pattern.ToString(engine.dictionary());
  EXPECT_TRUE(closed.Contains(fig4));
}

TEST(SpecmineIntegrationTest, RollbackVariantAlsoMined) {
  sim::TestSuiteOptions suite;
  suite.num_traces = 80;
  suite.min_runs_per_trace = 2;
  suite.max_runs_per_trace = 4;
  suite.transaction.rollback_probability = 0.5;
  suite.transaction.noise_probability = 0.2;
  SequenceDatabase db = sim::GenerateTransactionTraces(suite);
  EventId begin = db.dictionary().Lookup("TxManager.begin");
  EventId rollback = db.dictionary().Lookup("TxManager.rollback");
  ASSERT_NE(begin, kInvalidEvent);
  ASSERT_NE(rollback, kInvalidEvent);

  Engine engine(std::move(db));
  PatternSet closed = MineClosed(engine, 0.5);
  // Some closed pattern embeds the JTA abort motif <begin, ..., rollback>.
  Pattern motif{begin, rollback};
  bool found = false;
  for (const auto& it : closed.items()) {
    if (motif.IsSubsequenceOf(it.pattern)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SpecmineIntegrationTest, RecoversFigure5Rule) {
  sim::TestSuiteOptions suite;
  suite.num_traces = 60;
  suite.min_runs_per_trace = 1;
  suite.max_runs_per_trace = 3;
  suite.security.login_failure_probability = 0.0;
  // Config lookups that find no entry and direct AuthenInfo.getName reads
  // keep the Figure-5 two-event premise non-redundant (without them the
  // Definition-5.2 tie-break folds it into a shorter-premise rule).
  suite.security.missing_entry_probability = 0.1;
  suite.security.direct_name_lookup_probability = 0.1;
  suite.security.noise_probability = 0.4;
  SequenceDatabase db = sim::GenerateSecurityTraces(suite);
  Pattern premise = NamesToPattern(db, sim::Figure5Premise());
  Pattern consequent = NamesToPattern(db, sim::Figure5Consequent());

  Engine engine(std::move(db));
  // Under subsequence semantics a direct AuthenInfo.getName read occurring
  // after an earlier config lookup in the same trace is also a temporal
  // point of the premise pair (and is not followed by a login), so the
  // rule's confidence sits below 1.0 — exactly the "imperfect traces"
  // regime the paper mines in.
  RuleSet rules = MineRules(engine, 0.8, 0.8, /*non_redundant=*/true);
  const Rule* rule = rules.Find(premise, consequent);
  ASSERT_NE(rule, nullptr) << rules.ToString(engine.dictionary());
  EXPECT_GE(rule->confidence(), 0.8);
  EXPECT_GE(rule->s_support, 48u);
}

TEST(SpecmineIntegrationTest, LoginFailuresLowerConfidence) {
  sim::TestSuiteOptions suite;
  suite.num_traces = 120;
  suite.min_runs_per_trace = 1;
  suite.max_runs_per_trace = 2;
  suite.security.login_failure_probability = 0.2;
  suite.security.noise_probability = 0.2;
  SequenceDatabase db = sim::GenerateSecurityTraces(suite);
  Pattern premise = NamesToPattern(db, sim::Figure5Premise());
  Pattern consequent = NamesToPattern(db, sim::Figure5Consequent());
  Engine engine(std::move(db));
  RuleSet rules = MineRules(engine, 0.5, 0.5, /*non_redundant=*/false);
  const Rule* rule = rules.Find(premise, consequent);
  ASSERT_NE(rule, nullptr);
  EXPECT_LT(rule->confidence(), 1.0);
  EXPECT_GT(rule->confidence(), 0.5);
}

TEST(SpecmineIntegrationTest, MinedRulesRoundTripThroughLtl) {
  sim::TestSuiteOptions suite;
  suite.num_traces = 30;
  suite.security.login_failure_probability = 0.0;
  SequenceDatabase db = sim::GenerateSecurityTraces(suite);
  Engine engine(std::move(db));
  EXPECT_GT(MineClosed(engine, 0.9).size(), 0u);
  RuleSet rules = MineRules(engine, 0.9, 0.9, /*non_redundant=*/true);
  EXPECT_GT(rules.size(), 0u);
  // Every rule's LTL rendering parses back and, for confidence-1 rules,
  // holds on all traces.
  for (const Rule& rule : rules.rules()) {
    const std::string ltl = RuleToLtl(rule, engine.dictionary())->ToString();
    Result<LtlPtr> parsed = ParseLtl(ltl);
    ASSERT_TRUE(parsed.ok()) << ltl;
    if (rule.confidence() >= 1.0) {
      EXPECT_TRUE(HoldsOnAll(*parsed, engine.database())) << ltl;
    }
  }
}

TEST(SpecmineIntegrationTest, TraceFileWorkflow) {
  const char* path = "specmine_itest_traces.txt";
  {
    std::ofstream out(path);
    out << "# test traces\n";
    out << "lock use unlock\n";
    out << "lock unlock lock unlock\n";
    out << "lock x unlock\n";
  }
  Result<Engine> engine = Engine::FromTextTraceFile(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->num_sequences(), 3u);
  RuleSet rules = MineRules(*engine, 1.0, 1.0, /*non_redundant=*/true);
  EventId lock = engine->dictionary().Lookup("lock");
  EventId unlock = engine->dictionary().Lookup("unlock");
  EXPECT_NE(rules.Find(Pattern{lock}, Pattern{unlock}), nullptr);
  std::remove(path);
}

TEST(SpecmineIntegrationTest, MissingTraceFileIsError) {
  Result<Engine> engine = Engine::FromTextTraceFile("/no/such/file");
  EXPECT_FALSE(engine.ok());
}

TEST(SpecmineIntegrationTest, FullVsClosedPatternCounts) {
  sim::TestSuiteOptions suite;
  suite.num_traces = 20;
  suite.transaction.rollback_probability = 0.0;
  SequenceDatabase db = sim::GenerateTransactionTraces(suite);
  Engine engine(std::move(db));
  // Both bounded at length 6 to bound the full set's explosion.
  size_t closed_count = MineClosed(engine, 0.9, 6).size();
  FullPatternsTask full;
  full.options.min_support = engine.AbsoluteSupport(0.9);
  full.options.max_length = 6;
  Result<PatternSet> full_set = engine.CollectPatterns(full);
  ASSERT_TRUE(full_set.ok()) << full_set.status().ToString();
  EXPECT_LT(closed_count, full_set->size());
}

}  // namespace
}  // namespace specmine
