// Cooperative cancellation and deadlines, end to end through the Engine:
// a cancelled run fails with kCancelled/kDeadlineExceeded, whatever a
// streaming sink already saw is a prefix of the full run's deterministic
// emission order, and an armed-but-unfired token changes nothing — output
// stays byte-identical across thread counts and backends.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/itermine/generators.h"
#include "src/rulemine/backward_rules.h"
#include "src/support/cancel.h"
#include "src/support/random.h"
#include "src/trace/shard_set.h"

namespace specmine {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// A reproducible random corpus (same shape helper as shard_engine_test).
SequenceDatabase RandomDb(uint64_t seed, size_t num_traces,
                          size_t max_length, size_t alphabet) {
  Rng rng(seed);
  SequenceDatabaseBuilder builder;
  for (size_t t = 0; t < num_traces; ++t) {
    std::string line;
    const size_t len = rng.Uniform(max_length + 1);
    for (size_t k = 0; k < len; ++k) {
      line += "ev" + std::to_string(rng.Uniform(alphabet)) + " ";
    }
    builder.AddTraceFromString(line);
  }
  return builder.Build();
}

// Collects patterns and fires the token once \p k have arrived. Keeps
// returning true: stopping is the token's job here, not the sink's.
class CancelAfterSink : public PatternSink {
 public:
  CancelAfterSink(size_t k, CancelToken* token) : k_(k), token_(token) {}

  bool Consume(const Pattern& pattern, uint64_t support) override {
    set_.Add(pattern, support);
    if (set_.size() >= k_) token_->Cancel();
    return true;
  }

  const PatternSet& set() const { return set_; }

 private:
  size_t k_;
  CancelToken* token_;
  PatternSet set_;
};

TEST(CancelTokenTest, StartsCleanAndFiresOnce) {
  CancelToken token;
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_FALSE(token.fired());
  EXPECT_TRUE(token.StopStatus().ok());
  token.Cancel();
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_TRUE(token.fired());
  EXPECT_EQ(token.stop_code(), StatusCode::kCancelled);
  EXPECT_EQ(token.StopStatus().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ExpiredDeadlineFiresImmediately) {
  CancelToken token;
  token.SetDeadline(std::chrono::milliseconds(0));
  EXPECT_TRUE(token.fired());
  EXPECT_EQ(token.stop_code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(token.StopStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, FirstFiringWins) {
  CancelToken token;
  token.Cancel();
  token.SetDeadline(std::chrono::milliseconds(0));
  EXPECT_EQ(token.stop_code(), StatusCode::kCancelled);  // Cancel was first.
}

TEST(CancelTokenTest, FutureDeadlineDoesNotFire) {
  CancelToken token;
  token.SetDeadline(std::chrono::hours(1));
  EXPECT_FALSE(token.ShouldStopExact());
  EXPECT_FALSE(token.fired());
}

// The prefix property, single-threaded: cancelling after K delivered
// patterns yields kCancelled, and everything the sink saw is a prefix of
// the uncancelled run's emission order (supports included).
TEST(CancelTest, CancelledStreamingScanDeliversAPrefix) {
  SequenceDatabase db = RandomDb(97, 40, 12, 5);
  Result<Engine> engine = Engine::Create(std::move(db));
  ASSERT_TRUE(engine.ok());
  const EventDictionary& dict = engine->database().dictionary();

  FullPatternsTask reference_task;
  reference_task.options.min_support = 2;
  CollectingPatternSink reference;
  ASSERT_TRUE(engine->Mine(reference_task, reference).ok());
  const std::string full = reference.set().ToString(dict);
  ASSERT_GT(reference.set().size(), 20u);

  for (size_t k : {size_t{1}, size_t{5}, size_t{17}}) {
    SCOPED_TRACE("cancel after " + std::to_string(k));
    CancelToken token;
    FullPatternsTask task;
    task.options.min_support = 2;
    task.options.cancel = &token;
    CancelAfterSink sink(k, &token);
    Result<RunReport> run = engine->Mine(task, sink);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
    EXPECT_GE(sink.set().size(), k);
    EXPECT_LT(sink.set().size(), reference.set().size());
    const std::string partial = sink.set().ToString(dict);
    EXPECT_EQ(full.compare(0, partial.size(), partial), 0)
        << "partial output is not a prefix of the full emission order";
  }
}

// Same property through the parallel scan: a worker's subtree buffer is
// only replayed up to the first cancelled job, so delivery is still a
// prefix of the deterministic order.
TEST(CancelTest, CancelledParallelScanDeliversAPrefix) {
  SequenceDatabase db = RandomDb(98, 50, 12, 6);
  Result<Engine> engine = Engine::Create(std::move(db));
  ASSERT_TRUE(engine.ok());
  const EventDictionary& dict = engine->database().dictionary();

  FullPatternsTask reference_task;
  reference_task.options.min_support = 2;
  reference_task.options.num_threads = 4;
  CollectingPatternSink reference;
  ASSERT_TRUE(engine->Mine(reference_task, reference).ok());
  const std::string full = reference.set().ToString(dict);

  CancelToken token;
  FullPatternsTask task;
  task.options.min_support = 2;
  task.options.num_threads = 4;
  task.options.cancel = &token;
  CancelAfterSink sink(3, &token);
  Result<RunReport> run = engine->Mine(task, sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  const std::string partial = sink.set().ToString(dict);
  EXPECT_EQ(full.compare(0, partial.size(), partial), 0)
      << "parallel partial output is not a prefix of the full order";
}

// The generator miner answers deletions from its scan's support table. A
// scan cut short lacks some frequent deletions, so the miner recounts its
// misses, and what it returns is still a prefix of the complete run.
TEST(CancelTest, CancelledGeneratorRunReturnsAPrefix) {
  const SequenceDatabase db = RandomDb(97, 80, 12, 5);
  const PositionIndex index(db);
  const CountingBackend backend(index);
  IterGeneratorMinerOptions options;
  options.min_support = 2;
  options.num_threads = 1;
  IterMinerStats full_stats;
  const PatternSet full = MineIterativeGenerators(backend, options,
                                                  &full_stats);
  // The token reads its deadline once per 64 polls (one per node), so a
  // deadline that has passed stops the scan within its first 64 nodes.
  ASSERT_GT(full_stats.nodes_visited, 256u);
  bool saw_partial = false;
  // The first attempt may stop at the very first node (the strobe phase
  // is per thread); the next one then runs 64 nodes before it stops.
  for (int attempt = 0; attempt < 2 && !saw_partial; ++attempt) {
    CancelToken token;
    token.SetDeadline(std::chrono::milliseconds(20));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    options.cancel = &token;
    IterMinerStats stats;
    const PatternSet partial = MineIterativeGenerators(backend, options,
                                                       &stats);
    EXPECT_EQ(stats.stopped, StatusCode::kDeadlineExceeded);
    ASSERT_LE(partial.size(), full.size());
    for (size_t i = 0; i < partial.size(); ++i) {
      ASSERT_EQ(partial[i], full[i])
          << "cancelled generator output is not a prefix at " << i;
    }
    saw_partial = !partial.empty() && partial.size() < full.size();
  }
  EXPECT_TRUE(saw_partial);
}

// An armed token that never fires must change nothing: output stays
// byte-identical across thread counts and counting backends.
TEST(CancelTest, ArmedButUnfiredTokenKeepsOutputByteIdentical) {
  SequenceDatabase db = RandomDb(99, 40, 10, 6);
  Result<Engine> engine = Engine::Create(std::move(db));
  ASSERT_TRUE(engine.ok());
  const EventDictionary& dict = engine->database().dictionary();

  FullPatternsTask plain;
  plain.options.min_support = 2;
  CollectingPatternSink baseline;
  ASSERT_TRUE(engine->Mine(plain, baseline).ok());
  const std::string expected = baseline.set().ToString(dict);

  for (size_t threads : {size_t{1}, size_t{3}}) {
    for (BackendChoice backend : {BackendChoice::kCsr,
                                  BackendChoice::kBitmap}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      CancelToken token;
      token.SetDeadline(std::chrono::hours(1));
      FullPatternsTask task;
      task.options.min_support = 2;
      task.options.num_threads = threads;
      task.options.backend = backend;
      task.options.cancel = &token;
      CollectingPatternSink sink;
      Result<RunReport> run = engine->Mine(task, sink);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(sink.set().ToString(dict), expected);
    }
  }
}

// A deadline too small for the corpus stops the run with
// kDeadlineExceeded long before the full enumeration (which would be
// combinatorial over this corpus) could complete.
TEST(CancelTest, DeadlineStopsAnOversizedRun) {
  // A corpus big enough that the full run takes on the order of a
  // second (index build + scan over ~600k events): a 20ms deadline must
  // end the run far earlier, whichever phase it lands in.
  SequenceDatabase db = RandomDb(100, 20000, 60, 6);
  Result<Engine> engine = Engine::Create(std::move(db));
  ASSERT_TRUE(engine.ok());

  CancelToken token;
  token.SetDeadline(std::chrono::milliseconds(20));
  FullPatternsTask task;
  task.options.min_support = 2;
  task.options.cancel = &token;
  CollectingPatternSink sink;
  const auto start = std::chrono::steady_clock::now();
  Result<RunReport> run = engine->Mine(task, sink);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  // Generous bound: the point is "milliseconds, not hours".
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
}

// Materialized tasks (closed patterns, rules) deliver nothing once the
// token fires before delivery: the error arrives instead of a partial set.
TEST(CancelTest, PreCancelledMaterializedTasksDeliverNothing) {
  SequenceDatabase db = RandomDb(101, 30, 10, 5);
  Result<Engine> engine = Engine::Create(std::move(db));
  ASSERT_TRUE(engine.ok());

  CancelToken token;
  token.Cancel();

  ClosedTask closed;
  closed.options.min_support = 2;
  closed.options.cancel = &token;
  CollectingPatternSink patterns;
  Result<RunReport> run = engine->Mine(closed, patterns);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(patterns.set().size(), 0u);

  RulesTask rules;
  rules.options.min_s_support = 2;
  rules.options.cancel = &token;
  CollectingRuleSink rule_sink;
  run = engine->Mine(rules, rule_sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(rule_sink.set().size(), 0u);
}

// Backward rules poll the token once per premise: a pre-cancelled run
// enumerates no premise, and the Engine reports kCancelled with nothing
// delivered. An armed but unfired token changes nothing.
TEST(CancelTest, PreCancelledBackwardRulesEnumerateNoPremise) {
  SequenceDatabase db = RandomDb(104, 30, 10, 5);
  RuleMinerOptions options;
  options.min_s_support = 2;
  RuleMinerStats plain_stats;
  const RuleSet plain = MineBackwardRules(db, options, &plain_stats);
  ASSERT_GT(plain_stats.premises_enumerated, 0u);

  CancelToken armed;
  options.cancel = &armed;
  RuleMinerStats armed_stats;
  const RuleSet armed_rules = MineBackwardRules(db, options, &armed_stats);
  EXPECT_EQ(armed_stats.premises_enumerated, plain_stats.premises_enumerated);
  EXPECT_EQ(armed_stats.stopped, StatusCode::kOk);
  EXPECT_EQ(armed_rules.rules(), plain.rules());

  CancelToken token;
  token.Cancel();
  options.cancel = &token;
  RuleMinerStats stats;
  const RuleSet rules = MineBackwardRules(db, options, &stats);
  EXPECT_EQ(stats.premises_enumerated, 0u);
  EXPECT_EQ(stats.stopped, StatusCode::kCancelled);
  EXPECT_EQ(rules.size(), 0u);

  Result<Engine> engine = Engine::Create(std::move(db));
  ASSERT_TRUE(engine.ok());
  RulesTask task;
  task.backward = true;
  task.options = options;
  CollectingRuleSink sink;
  Result<RunReport> run = engine->Mine(task, sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(sink.set().size(), 0u);
}

// Cancellation reaches the sharded path: a token fired during phase 1
// (here: before it) yields kCancelled and an empty delivery — the empty
// prefix, since phase-1/2 partial state has no exact supports to emit.
TEST(CancelTest, CancelDuringShardedPhaseOneDeliversNothing) {
  SequenceDatabase db = RandomDb(102, 40, 10, 5);
  const std::string smdbset = TempPath("cancel_sharded.smdbset");
  ShardWriterOptions options;
  options.shard_bytes = 400;
  ASSERT_TRUE(WriteShardedDatabase(db, smdbset, options).ok());
  Result<Engine> engine = Engine::FromShardSet(smdbset);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_GT(engine->shard_set().num_shards(), 1u);

  CancelToken token;
  token.Cancel();
  FullPatternsTask task;
  task.options.min_support = 2;
  task.options.cancel = &token;
  CollectingPatternSink sink;
  Result<RunReport> run = engine->MineSharded(task, sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(sink.set().size(), 0u);
}

// The sequential miners honor the token too (PrefixSpan's scan).
TEST(CancelTest, PreCancelledSequentialTaskFails) {
  SequenceDatabase db = RandomDb(103, 30, 10, 5);
  Result<Engine> engine = Engine::Create(std::move(db));
  ASSERT_TRUE(engine.ok());

  CancelToken token;
  token.Cancel();
  SequentialTask task;
  task.options.min_support = 2;
  task.options.cancel = &token;
  CollectingPatternSink sink;
  Result<RunReport> run = engine->Mine(task, sink);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace specmine
