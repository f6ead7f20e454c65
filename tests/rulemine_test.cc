// Unit tests for src/rulemine: temporal points, premise/consequent miners,
// statistics, redundancy, and the end-to-end rule miner on hand-computed
// examples.

#include <gtest/gtest.h>

#include "src/rulemine/consequent_miner.h"
#include "src/rulemine/premise_miner.h"
#include "src/rulemine/redundancy.h"
#include "src/rulemine/rule_miner.h"
#include "src/rulemine/temporal_points.h"
#include "src/support/strings.h"

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

// ---------------------------------------------------------------------------
// Temporal points.

// The points of sequence s, read through the CSR accessors (empty when s
// is not a supporting sequence).
std::vector<Pos> PointsOf(const TemporalPointSet& pts, SeqId s) {
  for (size_t i = 0; i < pts.SupportingSequences(); ++i) {
    if (pts.seq(i) == s) {
      return std::vector<Pos>(pts.points(i).begin(), pts.points(i).end());
    }
  }
  return {};
}

TEST(TemporalPointsTest, MatchesDefinition51) {
  SequenceDatabase db = MakeDb({"a b a b", "b a", "x"});
  TemporalPointSet pts = ComputeTemporalPoints(P(db, "a b"), db);
  ASSERT_EQ(pts.SupportingSequences(), 1u);
  EXPECT_EQ(pts.seq(0), 0u);
  EXPECT_EQ(PointsOf(pts, 0), (std::vector<Pos>{1, 3}));
  EXPECT_TRUE(PointsOf(pts, 1).empty());  // No a before the b.
  EXPECT_TRUE(PointsOf(pts, 2).empty());
  EXPECT_EQ(pts.TotalPoints(), 2u);
  EXPECT_EQ(pts.SupportingSequences(), 1u);
}

TEST(TemporalPointsTest, SingleEventPremise) {
  SequenceDatabase db = MakeDb({"lock x lock y", "z lock"});
  TemporalPointSet pts = ComputeTemporalPoints(P(db, "lock"), db);
  EXPECT_EQ(PointsOf(pts, 0), (std::vector<Pos>{0, 2}));
  EXPECT_EQ(PointsOf(pts, 1), (std::vector<Pos>{1}));
  EXPECT_EQ(pts.TotalPoints(), 3u);
  EXPECT_EQ(pts.SupportingSequences(), 2u);
}

// ---------------------------------------------------------------------------
// Premise miner.

TEST(PremiseMinerTest, EnumeratesFrequentPremisesWithPoints) {
  SequenceDatabase db = MakeDb({"a b", "a c", "a d"});
  PremiseMinerOptions options;
  options.min_s_support = 3;
  options.maximality_pruning = false;
  std::vector<Pattern> premises;
  ScanPremises(db, options,
               [&](const Pattern& p, const TemporalPointSet& pts) {
                 premises.push_back(p);
                 EXPECT_EQ(pts.SupportingSequences(), 3u);
                 return true;
               });
  ASSERT_EQ(premises.size(), 1u);
  EXPECT_EQ(premises[0], P(db, "a"));
}

// The premise scan fills one reused point set incrementally (only the
// supporting sequences, cleared between premises); every premise must
// still see exactly the reference computation's points.
TEST(PremiseMinerTest, ReusedPointSetMatchesTheReference) {
  SequenceDatabase db =
      MakeDb({"a b a c b", "c a b", "b b a", "a c a c", "x y", "a b c a b"});
  for (bool pruning : {false, true}) {
    PremiseMinerOptions options;
    options.min_s_support = 2;
    options.maximality_pruning = pruning;
    size_t premises = 0;
    ScanPremises(db, options,
                 [&](const Pattern& p, const TemporalPointSet& pts) {
                   ++premises;
                   EXPECT_EQ(pts, ComputeTemporalPoints(p, db));
                   return true;
                 });
    EXPECT_GT(premises, 5u);
  }
}

TEST(PremiseMinerTest, MaximalityPruningDropsEquivalentShorterPremises) {
  // In every trace, b occurs only after a, so occ(<a, b>) == occ(<b>).
  // Under Definition 5.2 the larger concatenation dominates at equal
  // statistics, so the shorter premise <b> is pruned in favour of the
  // point-equivalent <a, b>.
  SequenceDatabase db = MakeDb({"a b c", "a b d"});
  PremiseMinerOptions options;
  options.min_s_support = 2;
  options.maximality_pruning = true;
  std::vector<Pattern> premises;
  ScanPremises(db, options,
               [&](const Pattern& p, const TemporalPointSet&) {
                 premises.push_back(p);
                 return true;
               });
  bool has_ab = false;
  bool has_b = false;
  for (const Pattern& p : premises) {
    if (p == P(db, "a b")) has_ab = true;
    if (p == P(db, "b")) has_b = true;
  }
  EXPECT_TRUE(has_ab);
  EXPECT_FALSE(has_b);
}

TEST(PremiseMinerTest, NonEquivalentPremisesKept) {
  // occ(<a, b>) != occ(<b>): trace 1 has a b without preceding a.
  SequenceDatabase db = MakeDb({"a b", "b x a b"});
  PremiseMinerOptions options;
  options.min_s_support = 2;
  options.maximality_pruning = true;
  std::vector<Pattern> premises;
  ScanPremises(db, options,
               [&](const Pattern& p, const TemporalPointSet&) {
                 premises.push_back(p);
                 return true;
               });
  bool has_ab = false;
  bool has_b = false;
  for (const Pattern& p : premises) {
    if (p == P(db, "a b")) has_ab = true;
    if (p == P(db, "b")) has_b = true;
  }
  EXPECT_TRUE(has_ab);
  EXPECT_TRUE(has_b);
}

// ---------------------------------------------------------------------------
// Consequent miner.

TEST(ConfidenceThresholdTest, RoundsUpAndNeverBelowOne) {
  EXPECT_EQ(ConfidenceSupportThreshold(0.5, 10), 5u);
  EXPECT_EQ(ConfidenceSupportThreshold(0.5, 9), 5u);   // ceil(4.5).
  EXPECT_EQ(ConfidenceSupportThreshold(0.9, 10), 9u);
  EXPECT_EQ(ConfidenceSupportThreshold(1.0, 7), 7u);
  EXPECT_EQ(ConfidenceSupportThreshold(0.0, 100), 1u);
  EXPECT_EQ(ConfidenceSupportThreshold(0.3, 0), 1u);
  // Float-exact boundary: 0.2 * 5 = 1.
  EXPECT_EQ(ConfidenceSupportThreshold(0.2, 5), 1u);
}

TEST(ConsequentMinerTest, MinesSuffixPatternsAboveConfidence) {
  // Premise <a> has points after which "b c" always follows; "d" follows
  // half the time.
  SequenceDatabase db = MakeDb({"a b c d", "a b x c"});
  TemporalPointSet pts = ComputeTemporalPoints(P(db, "a"), db);
  ASSERT_EQ(pts.TotalPoints(), 2u);
  ConsequentMinerOptions options;
  options.min_confidence = 1.0;
  options.closed_pruning = false;
  PatternSet posts = MineConsequents(db, pts, options);
  EXPECT_EQ(posts.SupportOf(P(db, "b c")), 2u);
  EXPECT_EQ(posts.SupportOf(P(db, "b")), 2u);
  EXPECT_FALSE(posts.Contains(P(db, "d")));  // Only 1 of 2 points.
  EXPECT_FALSE(posts.Contains(P(db, "a")));  // a does not recur after.
}

TEST(ConsequentMinerTest, ConsequentStrictlyAfterPoint) {
  // The premise event itself must not satisfy the consequent.
  SequenceDatabase db = MakeDb({"a b"});
  TemporalPointSet pts = ComputeTemporalPoints(P(db, "a"), db);
  ConsequentMinerOptions options;
  options.min_confidence = 1.0;
  options.closed_pruning = false;
  PatternSet posts = MineConsequents(db, pts, options);
  EXPECT_TRUE(posts.Contains(P(db, "b")));
  EXPECT_FALSE(posts.Contains(P(db, "a")));
}

TEST(ConsequentMinerTest, ClosedPruningDropsAbsorbedPosts) {
  SequenceDatabase db = MakeDb({"a b c", "a b c"});
  TemporalPointSet pts = ComputeTemporalPoints(P(db, "a"), db);
  ConsequentMinerOptions options;
  options.min_confidence = 1.0;
  options.closed_pruning = true;
  PatternSet posts = MineConsequents(db, pts, options);
  // <b> and <c> are absorbed by <b, c>.
  ASSERT_EQ(posts.size(), 1u);
  EXPECT_EQ(posts[0].pattern, P(db, "b c"));
}

// ---------------------------------------------------------------------------
// Rule statistics and redundancy.

TEST(RuleTest, ConfidenceAndConcatenation) {
  Rule r;
  r.premise = Pattern{0};
  r.consequent = Pattern{1};
  r.premise_points = 4;
  r.satisfied_points = 3;
  EXPECT_DOUBLE_EQ(r.confidence(), 0.75);
  EXPECT_EQ(r.Concatenation(), (Pattern{0, 1}));
  Rule zero;
  EXPECT_DOUBLE_EQ(zero.confidence(), 0.0);
}

TEST(RuleTest, SameConfidenceAsUsesExactArithmetic) {
  Rule a, b;
  a.premise_points = 3;
  a.satisfied_points = 1;
  b.premise_points = 6;
  b.satisfied_points = 2;
  EXPECT_TRUE(a.SameConfidenceAs(b));  // 1/3 == 2/6.
  b.satisfied_points = 3;
  EXPECT_FALSE(a.SameConfidenceAs(b));
}

Rule MakeRule(std::vector<EventId> pre, std::vector<EventId> post,
              uint64_t s_sup, uint64_t i_sup, uint64_t points,
              uint64_t satisfied) {
  Rule r;
  r.premise = Pattern(std::move(pre));
  r.consequent = Pattern(std::move(post));
  r.s_support = s_sup;
  r.i_support = i_sup;
  r.premise_points = points;
  r.satisfied_points = satisfied;
  return r;
}

TEST(RedundancyTest, ProperSubsequenceWithEqualStatsIsRedundant) {
  Rule rx = MakeRule({1}, {2}, 5, 7, 10, 9);
  Rule ry = MakeRule({1}, {2, 3}, 5, 7, 10, 9);
  RedundancyOptions options;
  EXPECT_TRUE(IsRedundantTo(rx, ry, options));
  EXPECT_FALSE(IsRedundantTo(ry, rx, options));
}

TEST(RedundancyTest, DifferentStatsNotRedundant) {
  RedundancyOptions options;
  Rule rx = MakeRule({1}, {2}, 5, 7, 10, 9);
  Rule ry = MakeRule({1}, {2, 3}, 4, 7, 10, 9);  // s-sup differs.
  EXPECT_FALSE(IsRedundantTo(rx, ry, options));
  Rule rz = MakeRule({1}, {2, 3}, 5, 7, 10, 8);  // Confidence differs.
  EXPECT_FALSE(IsRedundantTo(rx, rz, options));
}

TEST(RedundancyTest, EqualConcatenationTieBreaksOnPremiseLength) {
  // <a> -> <b, c> wins over <a, b> -> <c>.
  Rule shorter = MakeRule({1}, {2, 3}, 5, 7, 10, 9);
  Rule longer = MakeRule({1, 2}, {3}, 5, 7, 10, 9);
  RedundancyOptions options;
  EXPECT_TRUE(IsRedundantTo(longer, shorter, options));
  EXPECT_FALSE(IsRedundantTo(shorter, longer, options));
}

TEST(RedundancyTest, IsupportFlagControlsStrictness) {
  Rule rx = MakeRule({1}, {2}, 5, 7, 10, 9);
  Rule ry = MakeRule({1}, {2, 3}, 5, 99, 10, 9);
  RedundancyOptions lax;
  EXPECT_TRUE(IsRedundantTo(rx, ry, lax));
  RedundancyOptions strict;
  strict.require_equal_i_support = true;
  EXPECT_FALSE(IsRedundantTo(rx, ry, strict));
}

TEST(RedundancyTest, RemoveRedundantKeepsMaximalRules) {
  RuleSet rules;
  rules.Add(MakeRule({1}, {2}, 5, 7, 10, 9));
  rules.Add(MakeRule({1}, {2, 3}, 5, 7, 10, 9));
  rules.Add(MakeRule({4}, {5}, 2, 2, 4, 4));
  RuleSet out = RemoveRedundantRules(rules, RedundancyOptions{});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out.Find(Pattern{1}, Pattern{2, 3}), nullptr);
  EXPECT_NE(out.Find(Pattern{4}, Pattern{5}), nullptr);
  EXPECT_EQ(out.Find(Pattern{1}, Pattern{2}), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end rule mining.

TEST(RuleMinerTest, LockUnlockRule) {
  SequenceDatabase db = MakeDb({
      "lock use unlock",
      "lock unlock lock unlock",
      "x lock y unlock",
  });
  RuleMinerOptions options;
  options.min_s_support = 3;
  options.min_confidence = 1.0;
  options.non_redundant = false;
  RuleSet rules = MineRecurrentRules(db, options);
  const Rule* r = rules.Find(P(db, "lock"), P(db, "unlock"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->s_support, 3u);
  EXPECT_DOUBLE_EQ(r->confidence(), 1.0);
  // occ(<lock, unlock>): one per unlock preceded by a lock: 1 + 2 + 1.
  EXPECT_EQ(r->i_support, 4u);
}

TEST(RuleMinerTest, ConfidenceCountsUnsatisfiedPoints) {
  // Second lock in trace 0 is never released: 2 of 3 points satisfied.
  SequenceDatabase db = MakeDb({"lock unlock lock", "lock unlock"});
  RuleMinerOptions options;
  options.min_s_support = 2;
  options.min_confidence = 0.5;
  options.non_redundant = false;
  RuleSet rules = MineRecurrentRules(db, options);
  const Rule* r = rules.Find(P(db, "lock"), P(db, "unlock"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->premise_points, 3u);
  EXPECT_EQ(r->satisfied_points, 2u);
  EXPECT_NEAR(r->confidence(), 2.0 / 3.0, 1e-12);
}

TEST(RuleMinerTest, MinConfidenceFilters) {
  SequenceDatabase db = MakeDb({"lock unlock lock", "lock unlock"});
  RuleMinerOptions options;
  options.min_s_support = 2;
  options.min_confidence = 0.9;
  options.non_redundant = false;
  RuleSet rules = MineRecurrentRules(db, options);
  EXPECT_EQ(rules.Find(P(db, "lock"), P(db, "unlock")), nullptr);
}

TEST(RuleMinerTest, MinIsupportFilters) {
  SequenceDatabase db = MakeDb({"a b", "a b"});
  RuleMinerOptions options;
  options.min_s_support = 2;
  options.min_confidence = 1.0;
  options.non_redundant = false;
  options.min_i_support = 3;  // occ(<a, b>) == 2 < 3.
  RuleSet rules = MineRecurrentRules(db, options);
  EXPECT_EQ(rules.Find(P(db, "a"), P(db, "b")), nullptr);
  options.min_i_support = 2;
  rules = MineRecurrentRules(db, options);
  EXPECT_NE(rules.Find(P(db, "a"), P(db, "b")), nullptr);
}

TEST(RuleMinerTest, MultiEventRuleInitTermination) {
  // The paper's initialization-termination motif: <init1, init2> ->
  // <term1, term2>.
  SequenceDatabase db = MakeDb({
      "init1 init2 work term1 term2",
      "init1 x init2 work work term1 y term2",
      "init1 init2 term1 term2 init1 init2 term1 term2",
  });
  // Full mode surfaces the multi-event rule directly.
  RuleMinerOptions full;
  full.min_s_support = 3;
  full.min_confidence = 1.0;
  full.non_redundant = false;
  RuleSet full_rules = MineRecurrentRules(db, full);
  const Rule* r = full_rules.Find(P(db, "init1 init2"), P(db, "term1 term2"));
  ASSERT_NE(r, nullptr) << full_rules.ToString(db.dictionary());
  EXPECT_EQ(r->s_support, 3u);
  EXPECT_DOUBLE_EQ(r->confidence(), 1.0);
  // The NR set applies the Definition-5.2 tie-break: for equal
  // concatenations the rule with the *shorter premise* (longer consequent)
  // is retained, so <init1> -> <init2, term1, term2> represents the
  // constraint.
  RuleMinerOptions nr = full;
  nr.non_redundant = true;
  RuleSet nr_rules = MineRecurrentRules(db, nr);
  const Rule* kept =
      nr_rules.Find(P(db, "init1"), P(db, "init2 term1 term2"));
  ASSERT_NE(kept, nullptr) << nr_rules.ToString(db.dictionary());
  EXPECT_DOUBLE_EQ(kept->confidence(), 1.0);
  EXPECT_EQ(nr_rules.Find(P(db, "init1 init2"), P(db, "term1 term2")),
            nullptr);
}

TEST(RuleMinerTest, NonRedundantIsSubsetOfFull) {
  SequenceDatabase db = MakeDb({
      "a b c d",
      "a c b d",
      "a b d c",
  });
  RuleMinerOptions full;
  full.min_s_support = 2;
  full.min_confidence = 0.6;
  full.non_redundant = false;
  RuleSet full_rules = MineRecurrentRules(db, full);
  RuleMinerOptions nr = full;
  nr.non_redundant = true;
  RuleSet nr_rules = MineRecurrentRules(db, nr);
  EXPECT_LE(nr_rules.size(), full_rules.size());
  for (const Rule& r : nr_rules.rules()) {
    const Rule* in_full = full_rules.Find(r.premise, r.consequent);
    ASSERT_NE(in_full, nullptr) << r.ToString(db.dictionary());
    EXPECT_EQ(in_full->s_support, r.s_support);
    EXPECT_EQ(in_full->i_support, r.i_support);
    EXPECT_EQ(in_full->satisfied_points, r.satisfied_points);
    EXPECT_EQ(in_full->premise_points, r.premise_points);
  }
}

TEST(RuleMinerTest, TruncationStopsEarly) {
  SequenceDatabase db = MakeDb({"a b c d e", "a b c d e"});
  RuleMinerOptions options;
  options.min_s_support = 1;
  options.min_confidence = 0.1;
  options.non_redundant = false;
  options.max_rules = 10;
  RuleMinerStats stats;
  RuleSet rules = MineRecurrentRules(db, options, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(rules.size(), 10u);
}

TEST(RuleSetTest, SortByQualityOrdersByConfidenceThenSupport) {
  RuleSet rules;
  rules.Add(MakeRule({1}, {2}, 3, 3, 10, 5));   // conf 0.5.
  rules.Add(MakeRule({3}, {4}, 2, 2, 10, 10));  // conf 1.0.
  rules.Add(MakeRule({5}, {6}, 9, 9, 10, 10));  // conf 1.0, higher s-sup.
  rules.SortByQuality();
  EXPECT_EQ(rules[0].premise, Pattern{5});
  EXPECT_EQ(rules[1].premise, Pattern{3});
  EXPECT_EQ(rules[2].premise, Pattern{1});
}

TEST(RuleTest, ToStringRendersStats) {
  EventDictionary dict;
  dict.Intern("lock");
  dict.Intern("unlock");
  Rule r = MakeRule({0}, {1}, 3, 4, 4, 4);
  std::string s = r.ToString(dict);
  EXPECT_NE(s.find("<lock> -> <unlock>"), std::string::npos);
  EXPECT_NE(s.find("s-sup=3"), std::string::npos);
  EXPECT_NE(s.find("i-sup=4"), std::string::npos);
  EXPECT_NE(s.find("conf=1.000"), std::string::npos);
}

}  // namespace
}  // namespace specmine
