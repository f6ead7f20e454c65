// Tests for the specmine::Engine session façade: one cached index across
// a multi-task session, byte-identical outputs versus each miner's single
// entry point over an explicit PositionIndex, Status error paths, and the
// composable sink layer.

#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/episode/winepi.h"
#include "src/itermine/closed_miner.h"
#include "src/itermine/full_miner.h"
#include "src/itermine/generators.h"
#include "src/rulemine/rule_miner.h"
#include "src/seqmine/closed_sequential_miner.h"
#include "src/twoevent/perracotta.h"

namespace specmine {
namespace {

SequenceDatabase SmallDb() {
  SequenceDatabaseBuilder db;
  db.AddTraceFromString("lock read write unlock lock write unlock");
  db.AddTraceFromString("open read close lock unlock");
  db.AddTraceFromString("lock read unlock open read read close");
  db.AddTraceFromString("open write close open read close");
  db.AddTraceFromString("lock unlock lock read write unlock");
  return db.Build();
}

// ---------------------------------------------------------------------------
// Session caching: the index is built exactly once per Engine.

TEST(EngineTest, IndexBuiltOnceAcrossFullClosedRulesSession) {
  Engine engine(SmallDb());
  EXPECT_EQ(engine.index_builds(), 0u);

  FullPatternsTask full;
  full.options.min_support = 3;
  CollectingPatternSink full_sink;
  Result<RunReport> full_run = engine.Mine(full, full_sink);
  ASSERT_TRUE(full_run.ok());
  EXPECT_EQ(engine.index_builds(), 1u);

  ClosedTask closed;
  closed.options.min_support = 3;
  CollectingPatternSink closed_sink;
  Result<RunReport> closed_run = engine.Mine(closed, closed_sink);
  ASSERT_TRUE(closed_run.ok());
  // Cached reuse: no rebuild, and the report says so.
  EXPECT_EQ(engine.index_builds(), 1u);
  EXPECT_EQ(closed_run->index_build_seconds, 0.0);

  RulesTask rules;
  rules.options.min_s_support = 3;
  rules.options.min_confidence = 0.9;
  CollectingRuleSink rule_sink;
  Result<RunReport> rules_run = engine.Mine(rules, rule_sink);
  ASSERT_TRUE(rules_run.ok());
  EXPECT_EQ(engine.index_builds(), 1u);
  EXPECT_EQ(rules_run->index_build_seconds, 0.0);

  GeneratorsTask generators;
  generators.options.min_support = 3;
  CollectingPatternSink gen_sink;
  Result<RunReport> gen_run = engine.Mine(generators, gen_sink);
  ASSERT_TRUE(gen_run.ok());
  EXPECT_EQ(engine.index_builds(), 1u);
  EXPECT_EQ(gen_run->index_build_seconds, 0.0);

  EXPECT_FALSE(full_sink.set().empty());
  EXPECT_FALSE(closed_sink.set().empty());
  EXPECT_FALSE(rule_sink.set().empty());
}

// ---------------------------------------------------------------------------
// Byte-identical outputs versus each miner's single entry point, run over
// an explicit CSR PositionIndex (SmallDb's auto choice).

// The full miner's scan form, collected into a PatternSet.
PatternSet ScanFull(const CountingBackend& backend,
                    const IterMinerOptions& options) {
  PatternSet out;
  ScanFrequentIterative(backend, options,
                        [&out](const Pattern& p, uint64_t support) {
                          out.Add(p, support);
                          return true;
                        });
  return out;
}

TEST(EngineTest, FullPatternsMatchEntryPointByteForByte) {
  SequenceDatabase db = SmallDb();
  PositionIndex index(db);
  Engine engine(SmallDb());
  IterMinerOptions options;
  options.min_support = 2;
  PatternSet direct = ScanFull(CountingBackend(index), options);

  FullPatternsTask task;
  task.options = options;
  Result<PatternSet> mined = engine.CollectPatterns(task);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->ToString(engine.database().dictionary()),
            direct.ToString(db.dictionary()));
}

TEST(EngineTest, ClosedPatternsMatchEntryPointByteForByte) {
  SequenceDatabase db = SmallDb();
  PositionIndex index(db);
  Engine engine(SmallDb());
  ClosedIterMinerOptions options;
  options.min_support = 2;
  PatternSet direct = MineClosedIterative(CountingBackend(index), options);

  ClosedTask task;
  task.options = options;
  Result<PatternSet> mined = engine.CollectPatterns(task);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->ToString(engine.database().dictionary()),
            direct.ToString(db.dictionary()));
}

TEST(EngineTest, GeneratorsMatchEntryPointByteForByte) {
  SequenceDatabase db = SmallDb();
  PositionIndex index(db);
  Engine engine(SmallDb());
  IterGeneratorMinerOptions options;
  options.min_support = 2;
  PatternSet direct =
      MineIterativeGenerators(CountingBackend(index), options);

  GeneratorsTask task;
  task.options = options;
  Result<PatternSet> mined = engine.CollectPatterns(task);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->ToString(engine.database().dictionary()),
            direct.ToString(db.dictionary()));
}

TEST(EngineTest, RulesMatchEntryPointByteForByte) {
  SequenceDatabase db = SmallDb();
  PositionIndex index(db);
  const CountingBackend backend(index);
  Engine engine(SmallDb());
  RuleMinerOptions options;
  options.min_s_support = 3;
  options.min_confidence = 0.9;
  RuleSet direct = MineRecurrentRules(db, options, nullptr, nullptr, &backend);

  RulesTask task;
  task.options = options;
  Result<RuleSet> mined = engine.CollectRules(task);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->ToString(engine.database().dictionary()),
            direct.ToString(db.dictionary()));
}

TEST(EngineTest, SessionReusedIndexStillMatchesEntryPointsOnEveryTask) {
  // The acceptance-criteria shape: one session runs full, closed, and
  // rules back-to-back (index built once), each byte-identical to the
  // miner's entry point over a separately built index.
  SequenceDatabase db = SmallDb();
  PositionIndex index(db);
  const CountingBackend backend(index);
  Engine engine(SmallDb());

  FullPatternsTask full;
  full.options.min_support = 2;
  ClosedTask closed;
  closed.options.min_support = 2;
  RulesTask rules;
  rules.options.min_s_support = 3;
  rules.options.min_confidence = 0.9;

  Result<PatternSet> full_mined = engine.CollectPatterns(full);
  Result<PatternSet> closed_mined = engine.CollectPatterns(closed);
  Result<RuleSet> rules_mined = engine.CollectRules(rules);
  ASSERT_TRUE(full_mined.ok());
  ASSERT_TRUE(closed_mined.ok());
  ASSERT_TRUE(rules_mined.ok());
  EXPECT_EQ(engine.index_builds(), 1u);

  const EventDictionary& dict = engine.database().dictionary();
  EXPECT_EQ(full_mined->ToString(dict),
            ScanFull(backend, full.options).ToString(db.dictionary()));
  EXPECT_EQ(closed_mined->ToString(dict),
            MineClosedIterative(backend, closed.options)
                .ToString(db.dictionary()));
  EXPECT_EQ(rules_mined->ToString(dict),
            MineRecurrentRules(db, rules.options, nullptr, nullptr, &backend)
                .ToString(db.dictionary()));
}

TEST(EngineTest, SharedPoolParallelMiningMatchesSequential) {
  Engine engine(SmallDb());
  ClosedTask sequential;
  sequential.options.min_support = 2;
  sequential.options.num_threads = 1;
  ClosedTask parallel;
  parallel.options.min_support = 2;
  parallel.options.num_threads = 4;

  Result<PatternSet> seq = engine.CollectPatterns(sequential);
  Result<PatternSet> par1 = engine.CollectPatterns(parallel);
  Result<PatternSet> par2 = engine.CollectPatterns(parallel);  // Pool reused.
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par1.ok());
  ASSERT_TRUE(par2.ok());
  const EventDictionary& dict = engine.database().dictionary();
  EXPECT_EQ(seq->ToString(dict), par1->ToString(dict));
  EXPECT_EQ(seq->ToString(dict), par2->ToString(dict));
}

TEST(EngineTest, ClosedSequentialAndEpisodesAndPairsRun) {
  SequenceDatabase db = SmallDb();
  Engine engine(SmallDb());
  const EventDictionary& dict = engine.database().dictionary();

  ClosedSequentialTask seq_task;
  seq_task.options.min_support = 3;
  Result<PatternSet> seq = engine.CollectPatterns(seq_task);
  ASSERT_TRUE(seq.ok());
  ClosedSeqMinerOptions seq_options;
  seq_options.min_support = 3;
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  EXPECT_EQ(seq->ToString(dict),
            MineClosedSequential(units, seq_options).ToString(db.dictionary()));

  EpisodeTask episode_task;
  episode_task.winepi.window_width = 4;
  episode_task.winepi.min_window_count = 5;
  Result<PatternSet> episodes = engine.CollectPatterns(episode_task);
  ASSERT_TRUE(episodes.ok());
  WinepiOptions winepi_options;
  winepi_options.window_width = 4;
  winepi_options.min_window_count = 5;
  EXPECT_EQ(episodes->ToString(dict),
            MineWinepi(db, winepi_options).ToString(db.dictionary()));

  TwoEventTask pairs_task;
  pairs_task.options.min_satisfaction = 0.8;
  CollectingTwoEventSink pairs;
  Result<RunReport> pairs_run = engine.Mine(pairs_task, pairs);
  ASSERT_TRUE(pairs_run.ok());
  PerracottaOptions pairs_options;
  pairs_options.min_satisfaction = 0.8;
  EXPECT_EQ(pairs.rules().size(), MinePerracotta(db, pairs_options).size());
}

// ---------------------------------------------------------------------------
// Error paths: failures are values, not aborts.

TEST(EngineTest, EmptyDatabaseIsInvalidArgument) {
  Engine engine((SequenceDatabase()));
  ClosedTask task;
  task.options.min_support = 1;
  CollectingPatternSink sink;
  Result<RunReport> run = engine.Mine(task, sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("empty"), std::string::npos);
}

TEST(EngineTest, ZeroMinSupportIsInvalidArgument) {
  Engine engine(SmallDb());
  FullPatternsTask task;
  task.options.min_support = 0;
  CollectingPatternSink sink;
  Result<RunReport> run = engine.Mine(task, sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("min_support"), std::string::npos);
  // The failed task must not have paid for an index build.
  EXPECT_EQ(engine.index_builds(), 0u);
}

TEST(EngineTest, OutOfRangeConfidenceIsInvalidArgument) {
  Engine engine(SmallDb());
  RulesTask task;
  task.options.min_s_support = 1;
  task.options.min_confidence = 1.5;
  CollectingRuleSink sink;
  Result<RunReport> run = engine.Mine(task, sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("min_confidence"), std::string::npos);
}

TEST(EngineTest, ZeroWindowWidthIsInvalidArgument) {
  Engine engine(SmallDb());
  EpisodeTask task;
  task.winepi.window_width = 0;
  CollectingPatternSink sink;
  Result<RunReport> run = engine.Mine(task, sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, BadSatisfactionIsInvalidArgument) {
  Engine engine(SmallDb());
  TwoEventTask task;
  task.options.min_satisfaction = -0.25;
  CollectingTwoEventSink sink;
  Result<RunReport> run = engine.Mine(task, sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, MissingTraceFileIsIOError) {
  Result<Engine> engine = Engine::FromTextTraceFile("/no/such/file");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kIOError);
}

TEST(EngineTest, MalformedCsvReportsLineNumberThroughFactory) {
  std::string path = ::testing::TempDir() + "engine_test_bad.csv";
  {
    std::ofstream out(path);
    out << "t1,lock\n";
    out << "t1,unlock\n";
    out << "only-one-column\n";
  }
  Result<Engine> engine = Engine::FromCsvTraceFile(path, CsvTraceOptions{});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kParseError);
  EXPECT_NE(engine.status().message().find("line 3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EngineTest, CheckIndexableAcceptsSmallDatabases) {
  SequenceDatabase db = SmallDb();
  EXPECT_TRUE(CheckIndexable(db).ok());
}

// ---------------------------------------------------------------------------
// Sinks.

TEST(EngineTest, CountingSinkMatchesCollectingSink) {
  Engine engine(SmallDb());
  ClosedTask task;
  task.options.min_support = 2;
  CollectingPatternSink collected;
  CountingPatternSink counted;
  ASSERT_TRUE(engine.Mine(task, collected).ok());
  ASSERT_TRUE(engine.Mine(task, counted).ok());
  EXPECT_EQ(counted.count(), collected.set().size());
  EXPECT_GT(counted.max_support(), 0u);
}

TEST(EngineTest, TopKSinkKeepsTheKBestPatterns) {
  Engine engine(SmallDb());
  ClosedTask task;
  task.options.min_support = 2;
  CollectingPatternSink all;
  TopKPatternSink top(3);
  TeePatternSink tee(all, top);
  ASSERT_TRUE(engine.Mine(task, tee).ok());

  PatternSet full = all.TakeSet();
  full.SortBySupport();
  PatternSet best = top.TakeSorted();
  ASSERT_EQ(best.size(), 3u);
  const EventDictionary& dict = engine.database().dictionary();
  for (size_t i = 0; i < best.size(); ++i) {
    EXPECT_EQ(best[i].pattern.ToString(dict), full[i].pattern.ToString(dict));
    EXPECT_EQ(best[i].support, full[i].support);
  }
}

TEST(EngineTest, WriterSinkStreamsTheCanonicalLineFormat) {
  Engine engine(SmallDb());
  ClosedTask task;
  task.options.min_support = 2;
  CollectingPatternSink collected;
  std::ostringstream os;
  WriterPatternSink writer(os, engine.database().dictionary());
  TeePatternSink tee(collected, writer);
  ASSERT_TRUE(engine.Mine(task, tee).ok());
  EXPECT_EQ(os.str(), collected.set().ToString(engine.database().dictionary()));
}

TEST(EngineTest, SinkStopTruncatesDelivery) {
  Engine engine(SmallDb());
  ClosedTask task;
  task.options.min_support = 2;

  class StopAfterOne : public PatternSink {
   public:
    bool Consume(const Pattern&, uint64_t) override { return ++seen_ < 2; }
    size_t seen() const { return seen_; }

   private:
    size_t seen_ = 0;
  } sink;

  Result<RunReport> run = engine.Mine(task, sink);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->truncated);
  EXPECT_EQ(run->patterns_emitted, 2u);
  EXPECT_EQ(sink.seen(), 2u);
}

TEST(EngineTest, TopKRuleSinkMatchesQualityOrder) {
  Engine engine(SmallDb());
  RulesTask task;
  task.options.min_s_support = 2;
  task.options.min_confidence = 0.5;
  CollectingRuleSink all;
  TopKRuleSink top(2);
  TeeRuleSink tee(all, top);
  ASSERT_TRUE(engine.Mine(task, tee).ok());

  RuleSet full = all.TakeSet();
  full.SortByQuality();
  ASSERT_GE(full.size(), 2u);
  RuleSet best = top.TakeSorted();
  ASSERT_EQ(best.size(), 2u);
  const EventDictionary& dict = engine.database().dictionary();
  EXPECT_EQ(best[0].ToString(dict), full[0].ToString(dict));
  EXPECT_EQ(best[1].ToString(dict), full[1].ToString(dict));
}

}  // namespace
}  // namespace specmine
