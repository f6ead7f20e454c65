// Tests for the streaming specification monitor, including the exactness
// cross-check against the rule miner's statistics.

#include <gtest/gtest.h>

#include "src/rulemine/rule_miner.h"
#include "src/sim/test_suite.h"
#include "src/specmine/monitor.h"
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

Rule MakeRule(const SequenceDatabase& db, const std::string& pre,
              const std::string& post) {
  Rule r;
  r.premise = P(db, pre);
  r.consequent = P(db, post);
  return r;
}

void Feed(SpecificationMonitor* monitor, const SequenceDatabase& db) {
  for (EventSpan seq : db) {
    monitor->BeginTrace();
    for (EventId ev : seq) monitor->OnEvent(ev);
    monitor->EndTrace();
  }
}

TEST(MonitorTest, PointsAndDischargesLockUnlock) {
  SequenceDatabase db = MakeDb({"lock use unlock lock unlock", "lock use"});
  SpecificationMonitor monitor(db.dictionary());
  monitor.AddRule(MakeRule(db, "lock", "unlock"));
  Feed(&monitor, db);
  const MonitorRuleStats& st = monitor.stats(0);
  EXPECT_EQ(st.points, 3u);
  EXPECT_EQ(st.discharged, 2u);
  EXPECT_EQ(st.violations, 1u);
  EXPECT_EQ(st.violating_traces, 1u);
}

TEST(MonitorTest, MultiEventPremiseNeedsStemBeforePoint) {
  // Premise <a, b>: a b alone gives one point at b; "b a b" gives one.
  SequenceDatabase db = MakeDb({"a b c", "b a b c", "b c"});
  SpecificationMonitor monitor(db.dictionary());
  monitor.AddRule(MakeRule(db, "a b", "c"));
  Feed(&monitor, db);
  EXPECT_EQ(monitor.stats(0).points, 2u);
  EXPECT_EQ(monitor.stats(0).discharged, 2u);
  EXPECT_EQ(monitor.stats(0).violations, 0u);
}

TEST(MonitorTest, StemCompletionEventIsNotAPoint) {
  // Premise <a, a>: the first a is the stem, only later a's are points.
  SequenceDatabase db = MakeDb({"a a a b"});
  SpecificationMonitor monitor(db.dictionary());
  monitor.AddRule(MakeRule(db, "a a", "b"));
  Feed(&monitor, db);
  EXPECT_EQ(monitor.stats(0).points, 2u);
  EXPECT_EQ(monitor.stats(0).discharged, 2u);
}

TEST(MonitorTest, MultiEventConsequentInOrder) {
  SequenceDatabase db = MakeDb({"a c b", "a b c"});
  SpecificationMonitor monitor(db.dictionary());
  monitor.AddRule(MakeRule(db, "a", "b c"));
  Feed(&monitor, db);
  // Trace 0: b then nothing -> violation (c before b does not count).
  EXPECT_EQ(monitor.stats(0).points, 2u);
  EXPECT_EQ(monitor.stats(0).discharged, 1u);
  EXPECT_EQ(monitor.stats(0).violations, 1u);
}

TEST(MonitorTest, ObligationNotFedByItsOwnPointEvent) {
  // Rule <a> -> <a>: a single a must NOT discharge itself.
  SequenceDatabase db = MakeDb({"a", "a a"});
  SpecificationMonitor monitor(db.dictionary());
  monitor.AddRule(MakeRule(db, "a", "a"));
  Feed(&monitor, db);
  // Trace 0: 1 point, violated. Trace 1: 2 points, first discharged by
  // the second a, second violated.
  EXPECT_EQ(monitor.stats(0).points, 3u);
  EXPECT_EQ(monitor.stats(0).discharged, 1u);
  EXPECT_EQ(monitor.stats(0).violations, 2u);
}

TEST(MonitorTest, UnknownEventNamesAreInert) {
  SequenceDatabase db = MakeDb({"lock unlock"});
  SpecificationMonitor monitor(db.dictionary());
  monitor.AddRule(MakeRule(db, "lock", "unlock"));
  monitor.BeginTrace();
  monitor.OnEventName("lock");
  monitor.OnEventName("never.seen.before");
  monitor.OnEventName("unlock");
  monitor.EndTrace();
  EXPECT_EQ(monitor.stats(0).points, 1u);
  EXPECT_EQ(monitor.stats(0).discharged, 1u);
}

TEST(MonitorTest, StatsMatchMinerOnSimulatedTraces) {
  // The monitor's streaming counts must reproduce the miner's statistics.
  sim::TestSuiteOptions suite;
  suite.num_traces = 40;
  suite.security.login_failure_probability = 0.1;
  suite.security.missing_entry_probability = 0.1;
  suite.security.noise_probability = 0.3;
  SequenceDatabase db = sim::GenerateSecurityTraces(suite);
  RuleMinerOptions options;
  options.min_s_support = static_cast<uint64_t>(0.5 * db.size());
  options.min_confidence = 0.5;
  options.non_redundant = true;
  RuleSet rules = MineRecurrentRules(HybridIndex(db), options);
  ASSERT_GT(rules.size(), 0u);

  SpecificationMonitor monitor(db.dictionary());
  for (const Rule& r : rules.rules()) monitor.AddRule(r);
  Feed(&monitor, db);
  for (size_t i = 0; i < rules.size(); ++i) {
    const MonitorRuleStats& st = monitor.stats(i);
    EXPECT_EQ(st.points, rules[i].premise_points)
        << rules[i].ToString(db.dictionary());
    EXPECT_EQ(st.discharged, rules[i].satisfied_points)
        << rules[i].ToString(db.dictionary());
    EXPECT_EQ(st.points - st.discharged, st.violations);
  }
}

TEST(MonitorTest, BeginTraceResetsState) {
  SequenceDatabase db = MakeDb({"lock unlock"});
  SpecificationMonitor monitor(db.dictionary());
  monitor.AddRule(MakeRule(db, "lock", "unlock"));
  monitor.BeginTrace();
  monitor.OnEventName("lock");
  // Implicit end via BeginTrace: the open obligation becomes a violation.
  monitor.BeginTrace();
  monitor.OnEventName("unlock");  // Must not discharge across traces.
  monitor.EndTrace();
  EXPECT_EQ(monitor.stats(0).points, 1u);
  EXPECT_EQ(monitor.stats(0).discharged, 0u);
  EXPECT_EQ(monitor.stats(0).violations, 1u);
}

}  // namespace
}  // namespace specmine
