// Unit tests for src/itermine: QRE semantics, the projection engine, and
// the full / closed miners on hand-computed examples.

#include <gtest/gtest.h>

#include <map>

#include "src/engine/engine.h"
#include "src/itermine/brute_force.h"
#include "src/itermine/projection.h"
#include "src/itermine/qre_verifier.h"
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

std::map<Pattern, uint64_t> ToMap(const PatternSet& set) {
  std::map<Pattern, uint64_t> out;
  for (const auto& it : set.items()) out[it.pattern] = it.support;
  return out;
}

// Runs \p task in a fresh Engine session over a copy of \p db, failing
// the test on an error Status.
template <typename Task>
PatternSet Collect(const SequenceDatabase& db, const Task& task,
                   RunReport* report = nullptr) {
  Result<PatternSet> mined = Engine(db).CollectPatterns(task, report);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  return mined.ok() ? mined.TakeValueOrDie() : PatternSet{};
}

// ---------------------------------------------------------------------------
// QRE verifier (Definition 4.1).

TEST(QreVerifierTest, IsInstanceBasicAcceptance) {
  SequenceDatabase db = MakeDb({"a x b"});
  // <a, b>: the x in the gap is outside the alphabet -> instance.
  EXPECT_TRUE(IsQreInstance(P(db, "a b"), db[0], 0, 2));
  // Substring must start/end exactly on the pattern events.
  EXPECT_FALSE(IsQreInstance(P(db, "a b"), db[0], 0, 1));
  EXPECT_FALSE(IsQreInstance(P(db, "a b"), db[0], 1, 2));
}

TEST(QreVerifierTest, IsInstanceRejectsAlphabetEventInGap) {
  SequenceDatabase db = MakeDb({"a b b", "a a b"});
  // <a, b> over "a b b" [0..2]: second b is an alphabet event inside.
  EXPECT_FALSE(IsQreInstance(P(db, "a b"), db[0], 0, 2));
  EXPECT_TRUE(IsQreInstance(P(db, "a b"), db[0], 0, 1));
  // "a a b" [0..2]: the second a breaks the chain.
  EXPECT_FALSE(IsQreInstance(P(db, "a b"), db[1], 0, 2));
  EXPECT_TRUE(IsQreInstance(P(db, "a b"), db[1], 1, 2));
}

TEST(QreVerifierTest, IsInstanceWithRepeatedPatternEvents) {
  SequenceDatabase db = MakeDb({"a x a y b"});
  EXPECT_TRUE(IsQreInstance(P(db, "a a b"), db[0], 0, 4));
  EXPECT_FALSE(IsQreInstance(P(db, "a b"), db[0], 0, 4));
}

TEST(QreVerifierTest, FindInstancesTelephoneExample) {
  // The paper's MSC conformance examples (Section 3.2): out-of-order and
  // duplicated events do not form instances.
  SequenceDatabase db = MakeDb({
      "off_hook seizure ring answer ring connection",
      "off_hook seizure ring answer answer connection",
      "off_hook seizure ring answer connection",
  });
  Pattern protocol = P(db, "off_hook seizure ring answer connection");
  EXPECT_TRUE(FindInstances(protocol, db[0], 0).empty());
  EXPECT_TRUE(FindInstances(protocol, db[1], 1).empty());
  InstanceList ok = FindInstances(protocol, db[2], 2);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].start, 0u);
  EXPECT_EQ(ok[0].end, 4u);
}

TEST(QreVerifierTest, FindInstancesRepetitionWithinSequence) {
  SequenceDatabase db = MakeDb({"lock use unlock lock unlock x"});
  InstanceList insts = FindInstances(P(db, "lock unlock"), db[0], 0);
  ASSERT_EQ(insts.size(), 2u);
  EXPECT_EQ(insts[0], (IterInstance{0, 0, 2}));
  EXPECT_EQ(insts[1], (IterInstance{0, 3, 4}));
}

TEST(QreVerifierTest, SelfOverlappingPattern) {
  SequenceDatabase db = MakeDb({"a a a"});
  InstanceList insts = FindInstances(P(db, "a a"), db[0], 0);
  ASSERT_EQ(insts.size(), 2u);
  EXPECT_EQ(insts[0], (IterInstance{0, 0, 1}));
  EXPECT_EQ(insts[1], (IterInstance{0, 1, 2}));
}

TEST(QreVerifierTest, CountInstancesAcrossSequences) {
  SequenceDatabase db = MakeDb({"a b a b", "a b", "b a"});
  EXPECT_EQ(CountInstances(P(db, "a b"), db), 3u);
}

// ---------------------------------------------------------------------------
// Projection engine. Each query runs on both index layouts — every event a
// bitmap row (kBitmapDenseCutoff), and the tuned cutoff, which keeps these
// small corpora's events on the ID-list side — and the two must agree.

// The bitmap and the tuned-cutoff index over one database.
struct Indexes {
  explicit Indexes(const SequenceDatabase& db)
      : bitmap(db, kBitmapDenseCutoff), tuned(db) {}
  HybridIndex bitmap;
  HybridIndex tuned;
};

InstanceList Singles(const Indexes& idx, EventId ev) {
  InstanceList out = SingleEventInstances(idx.tuned, ev);
  EXPECT_EQ(out, SingleEventInstances(idx.bitmap, ev));
  return out;
}

ForwardExtensionMap Forward(const Indexes& idx, const Pattern& pattern,
                            const InstanceList& instances) {
  ProjectionWorkspace ws;
  ForwardExtensionMap out, bitmap;
  ForwardExtensions(idx.tuned, pattern, instances, /*min_count=*/1, &ws,
                    &out);
  ForwardExtensions(idx.bitmap, pattern, instances, /*min_count=*/1, &ws,
                    &bitmap);
  EXPECT_EQ(out.entries(), bitmap.entries());
  return out;
}

BackwardExtensionMap Backward(const Indexes& idx, const Pattern& pattern,
                              const InstanceList& instances) {
  ProjectionWorkspace ws;
  BackwardExtensionMap out;
  for (const auto& [ev, ext] : BackwardExtensions(
           idx.tuned, pattern, instances, /*min_count=*/1, &ws)) {
    out.emplace_back(ev, ext);
  }
  const BackwardExtensionMap& bitmap = BackwardExtensions(
      idx.bitmap, pattern, instances, /*min_count=*/1, &ws);
  EXPECT_EQ(out.size(), bitmap.size());
  auto it = bitmap.begin();
  for (const auto& [ev, ext] : out) {
    if (it == bitmap.end()) break;
    EXPECT_EQ(ev, it->first);
    EXPECT_EQ(ext.support, it->second.support);
    EXPECT_EQ(ext.all_adjacent, it->second.all_adjacent);
    ++it;
  }
  return out;
}

TEST(ProjectionTest, SingleEventInstances) {
  SequenceDatabase db = MakeDb({"a b a", "b a"});
  InstanceList insts = Singles(Indexes(db), db.dictionary().Lookup("a"));
  ASSERT_EQ(insts.size(), 3u);
  EXPECT_EQ(insts[0], (IterInstance{0, 0, 0}));
  EXPECT_EQ(insts[1], (IterInstance{0, 2, 2}));
  EXPECT_EQ(insts[2], (IterInstance{1, 1, 1}));
}

TEST(ProjectionTest, ForwardExtensionsMatchVerifier) {
  SequenceDatabase db = MakeDb({"a x b a b c", "a c b"});
  const Indexes index(db);
  Pattern a = P(db, "a");
  auto ext = Forward(index, a, FindAllInstances(a, db));
  for (const auto& [ev, instances] : ext) {
    Pattern q = a.Extend(ev);
    EXPECT_EQ(instances, FindAllInstances(q, db)) << q.ToString();
  }
}

TEST(ProjectionTest, ForwardExtensionGapCheck) {
  // Extending <a, c> by 'x': x occurs inside the a..c gap in trace 0, so
  // only trace 1 extends.
  SequenceDatabase db = MakeDb({"a x c x", "a c x"});
  const Indexes index(db);
  Pattern ac = P(db, "a c");
  InstanceList insts = FindAllInstances(ac, db);
  ASSERT_EQ(insts.size(), 2u);
  auto ext = Forward(index, ac, insts);
  EventId x = db.dictionary().Lookup("x");
  ASSERT_EQ(ext.count(x), 1u);
  EXPECT_EQ(ext.at(x), FindAllInstances(P(db, "a c x"), db));
  EXPECT_EQ(ext.at(x).size(), 1u);
  EXPECT_EQ(ext.at(x)[0].seq, 1u);
}

TEST(ProjectionTest, ForwardExtensionStopsAtAlphabetEvent) {
  SequenceDatabase db = MakeDb({"a b c"});
  const Indexes index(db);
  Pattern ab = P(db, "a b");
  auto ext = Forward(index, ab, FindAllInstances(ab, db));
  // After the instance, c extends; beyond it nothing else (no alphabet
  // event stops the scan here — c is first).
  EXPECT_EQ(ext.count(db.dictionary().Lookup("c")), 1u);
  // Extending by 'a' (alphabet event): next a after end does not exist.
  EXPECT_EQ(ext.count(db.dictionary().Lookup("a")), 0u);
}

TEST(ProjectionTest, ForwardExtensionByAlphabetEvent) {
  SequenceDatabase db = MakeDb({"a b a b"});
  const Indexes index(db);
  Pattern ab = P(db, "a b");
  auto ext = Forward(index, ab, FindAllInstances(ab, db));
  EventId a = db.dictionary().Lookup("a");
  ASSERT_EQ(ext.count(a), 1u);
  // <a, b, a>: one instance (0..2), from the first <a, b> instance.
  EXPECT_EQ(ext.at(a), FindAllInstances(P(db, "a b a"), db));
}

TEST(ProjectionTest, BackwardExtensionsSupportsAndAdjacency) {
  SequenceDatabase db = MakeDb({"x a b", "y x a b"});
  const Indexes index(db);
  Pattern ab = P(db, "a b");
  auto back = Backward(index, ab, FindAllInstances(ab, db));
  EventId x = db.dictionary().Lookup("x");
  EventId y = db.dictionary().Lookup("y");
  ASSERT_EQ(back.count(x), 1u);
  EXPECT_EQ(back.at(x).support, 2u);
  EXPECT_TRUE(back.at(x).all_adjacent);
  // y is behind x; scanning back collects it as a first-seen non-alphabet
  // candidate in trace 1 only, not adjacent.
  ASSERT_EQ(back.count(y), 1u);
  EXPECT_EQ(back.at(y).support, 1u);
  EXPECT_FALSE(back.at(y).all_adjacent);
}

TEST(ProjectionTest, BackwardExtensionGapCheck) {
  // <a, b> instance with x inside the gap cannot extend backward by x.
  SequenceDatabase db = MakeDb({"x a x b"});
  const Indexes index(db);
  Pattern ab = P(db, "a b");
  auto back = Backward(index, ab, FindAllInstances(ab, db));
  EXPECT_EQ(back.count(db.dictionary().Lookup("x")), 0u);
}

TEST(ProjectionTest, BackwardExtensionStopsAtAlphabetEvent) {
  SequenceDatabase db = MakeDb({"b y a b"});
  const Indexes index(db);
  Pattern ab = P(db, "a b");
  auto back = Backward(index, ab, FindAllInstances(ab, db));
  EventId b = db.dictionary().Lookup("b");
  EventId y = db.dictionary().Lookup("y");
  // Scanning back from a: y first (candidate), then b (alphabet, stop).
  ASSERT_EQ(back.count(y), 1u);
  ASSERT_EQ(back.count(b), 1u);
  EXPECT_EQ(back.at(b).support, 1u);
  EXPECT_FALSE(back.at(b).all_adjacent);
}

TEST(ProjectionTest, UniformInfixAbsorberDetected) {
  // Every <a, b> instance has exactly one c in the gap.
  SequenceDatabase db = MakeDb({"a c b", "a x c b"});
  Pattern ab = P(db, "a b");
  EXPECT_TRUE(HasUniformInfixAbsorber(db, ab, FindAllInstances(ab, db)));
}

TEST(ProjectionTest, UniformInfixAbsorberRepeatedEvent) {
  // Gap always contains c twice: <a, c, b> has support 0, but <a, c, c, b>
  // absorbs <a, b> — the generalized profile check catches it.
  SequenceDatabase db = MakeDb({"a c c b", "a c x c b"});
  Pattern ab = P(db, "a b");
  EXPECT_TRUE(HasUniformInfixAbsorber(db, ab, FindAllInstances(ab, db)));
  EXPECT_EQ(CountInstances(P(db, "a c b"), db), 0u);
  EXPECT_EQ(CountInstances(P(db, "a c c b"), db), 2u);
}

TEST(ProjectionTest, NonUniformProfilesNotAbsorbing) {
  SequenceDatabase db = MakeDb({"a c b", "a b"});
  Pattern ab = P(db, "a b");
  EXPECT_FALSE(HasUniformInfixAbsorber(db, ab, FindAllInstances(ab, db)));
}

TEST(ProjectionTest, ProfilePositionMatters) {
  // c once in gap 1 vs once in gap 2: profiles differ.
  SequenceDatabase db = MakeDb({"a c b d", "a b c d"});
  Pattern abd = P(db, "a b d");
  ASSERT_EQ(FindAllInstances(abd, db).size(), 2u);
  EXPECT_FALSE(HasUniformInfixAbsorber(db, abd, FindAllInstances(abd, db)));
}

// ---------------------------------------------------------------------------
// Full miner.

TEST(FullIterMinerTest, LockUnlockExample) {
  SequenceDatabase db = MakeDb({
      "lock use unlock lock unlock",
      "lock unlock x lock use use unlock",
  });
  IterMinerOptions options;
  options.min_support = 4;
  auto m = ToMap(Collect(db, FullPatternsTask{.options = options}));
  EXPECT_EQ(m.at(P(db, "lock")), 4u);
  EXPECT_EQ(m.at(P(db, "unlock")), 4u);
  EXPECT_EQ(m.at(P(db, "lock unlock")), 4u);
  EXPECT_EQ(m.count(P(db, "use")), 0u);  // Support 3 < 4.
}

TEST(FullIterMinerTest, SupportsCountInstancesWithinAndAcross) {
  SequenceDatabase db = MakeDb({"a b a b", "a b"});
  IterMinerOptions options;
  options.min_support = 1;
  auto m = ToMap(Collect(db, FullPatternsTask{.options = options}));
  EXPECT_EQ(m.at(P(db, "a b")), 3u);
  EXPECT_EQ(m.at(P(db, "a b a")), 1u);
  EXPECT_EQ(m.at(P(db, "a b a b")), 1u);
}

TEST(FullIterMinerTest, MatchesBruteForce) {
  SequenceDatabase db = MakeDb({"a b c a b", "b a c b a c", "c c a b"});
  for (uint64_t min_sup : {1u, 2u, 3u}) {
    IterMinerOptions options;
    options.min_support = min_sup;
    auto got = ToMap(Collect(db, FullPatternsTask{.options = options}));
    auto want = ToMap(BruteForceFrequentIterative(db, min_sup));
    EXPECT_EQ(got, want) << "min_sup=" << min_sup;
  }
}

TEST(FullIterMinerTest, MaxLengthRespected) {
  SequenceDatabase db = MakeDb({"a b c d"});
  IterMinerOptions options;
  options.min_support = 1;
  options.max_length = 2;
  PatternSet out = Collect(db, FullPatternsTask{.options = options});
  for (const auto& it : out.items()) EXPECT_LE(it.pattern.size(), 2u);
}

TEST(FullIterMinerTest, TruncationReported) {
  SequenceDatabase db = MakeDb({"a b c d e"});
  IterMinerOptions options;
  options.min_support = 1;
  options.max_patterns = 3;
  RunReport report;
  PatternSet out = Collect(db, FullPatternsTask{.options = options}, &report);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(report.truncated);
}

// ---------------------------------------------------------------------------
// Closed miner.

TEST(ClosedIterMinerTest, AbsorbedPatternsDropped) {
  // Every a is followed by b with nothing between; <a> and <b> are
  // absorbed by <a, b>.
  SequenceDatabase db = MakeDb({"a b x a b", "y a b"});
  ClosedIterMinerOptions options;
  options.min_support = 2;
  auto m = ToMap(Collect(db, ClosedTask{.options = options}));
  EXPECT_EQ(m.count(P(db, "a")), 0u);
  EXPECT_EQ(m.count(P(db, "b")), 0u);
  EXPECT_EQ(m.at(P(db, "a b")), 3u);
}

TEST(ClosedIterMinerTest, MatchesBruteForceDefinitionLevel) {
  std::vector<std::vector<std::string>> dbs = {
      {"a b c a b", "b a c b a c", "c c a b"},
      {"lock use unlock lock unlock", "lock unlock use"},
      {"a c b", "a x c b"},          // Uniform infix.
      {"a c c b", "a c x c b"},      // Repeated-event infix.
      {"a b a b a b", "b a b a"},    // Heavy overlap.
  };
  for (size_t i = 0; i < dbs.size(); ++i) {
    SequenceDatabase db = MakeDb(dbs[i]);
    for (uint64_t min_sup : {1u, 2u}) {
      ClosedIterMinerOptions options;
      options.min_support = min_sup;
      auto got = ToMap(Collect(db, ClosedTask{.options = options}));
      auto want = ToMap(BruteForceClosedIterative(db, min_sup));
      EXPECT_EQ(got, want) << "db=" << i << " min_sup=" << min_sup;
    }
  }
}

TEST(ClosedIterMinerTest, ClosedSetIsSubsetOfFullWithEqualSupports) {
  SequenceDatabase db = MakeDb({"a b c a b c", "c a b", "b c a"});
  IterMinerOptions full_options;
  full_options.min_support = 2;
  auto full = ToMap(Collect(db, FullPatternsTask{.options = full_options}));
  ClosedIterMinerOptions closed_options;
  closed_options.min_support = 2;
  auto closed = ToMap(Collect(db, ClosedTask{.options = closed_options}));
  EXPECT_LE(closed.size(), full.size());
  for (const auto& [p, sup] : closed) {
    ASSERT_EQ(full.count(p), 1u) << p.ToString();
    EXPECT_EQ(full.at(p), sup);
  }
}

TEST(ClosedIterMinerTest, PrunesSubtrees) {
  // Repetitive looping data triggers the P1 adjacency prune.
  SequenceDatabase db = MakeDb({
      "a b c a b c a b c a b c",
      "a b c a b c a b c",
  });
  ClosedIterMinerOptions with;
  with.min_support = 2;
  RunReport stats_with;
  auto closed = ToMap(Collect(db, ClosedTask{.options = with}, &stats_with));
  ClosedIterMinerOptions without = with;
  without.prefix_prune = false;
  without.aggressive_prefix_prune = false;
  RunReport stats_without;
  auto closed_unpruned =
      ToMap(Collect(db, ClosedTask{.options = without}, &stats_without));
  EXPECT_EQ(closed, closed_unpruned);
  EXPECT_GT(stats_with.subtrees_pruned, 0u);
  EXPECT_LT(stats_with.nodes_visited, stats_without.nodes_visited);
}

TEST(ClosedIterMinerTest, InstanceCorrespondenceOracleHelpers) {
  SequenceDatabase db = MakeDb({"a b", "a b", "a x b"});
  // <a> corresponds totally to <a, b> (same number of instances, each
  // contained).
  EXPECT_TRUE(
      HasTotalInstanceCorrespondence(db, P(db, "a"), P(db, "a b")));
  SequenceDatabase db2 = MakeDb({"a b", "a"});
  // Second a has no containing <a, b> instance.
  EXPECT_FALSE(
      HasTotalInstanceCorrespondence(db2, P(db2, "a"), P(db2, "a b")));
}

}  // namespace
}  // namespace specmine
