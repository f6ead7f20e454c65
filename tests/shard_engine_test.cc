// The sharded-equivalence property: a session opened from a .smdbset
// mines byte-identically to one opened from the equivalent single .smdb —
// for the regular (merged) tasks and for the two-phase MineSharded path,
// across randomized corpora, shard-size bounds, thresholds, and thread
// counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/phase1_cache.h"
#include "src/support/random.h"
#include "src/synth/quest_generator.h"
#include "src/trace/append_session.h"
#include "src/trace/shard_set.h"

namespace specmine {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// A reproducible random corpus: \p num_traces traces of up to
// \p max_length events over an alphabet of \p alphabet names.
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

struct EnginePair {
  Engine single;
  Engine sharded;
};

// Packs \p db both ways and opens both sessions.
EnginePair MakePair(const SequenceDatabase& db, const std::string& stem,
                    uint64_t shard_bytes) {
  const std::string smdb = TempPath(stem + ".smdb");
  const std::string smdbset = TempPath(stem + ".smdbset");
  EXPECT_TRUE(WriteBinaryDatabaseFile(db, smdb).ok());
  ShardWriterOptions options;
  options.shard_bytes = shard_bytes;
  EXPECT_TRUE(WriteShardedDatabase(db, smdbset, options).ok());
  Result<Engine> single = Engine::FromBinaryFile(smdb);
  Result<Engine> sharded = Engine::FromShardSet(smdbset);
  EXPECT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return EnginePair{single.TakeValueOrDie(), sharded.TakeValueOrDie()};
}

TEST(ShardEngineTest, FromShardSetExposesTheShardStructure) {
  SequenceDatabase db = RandomDb(7, 30, 10, 6);
  EnginePair pair = MakePair(db, "expose", 400);
  EXPECT_FALSE(pair.single.sharded());
  EXPECT_TRUE(pair.sharded.sharded());
  EXPECT_FALSE(pair.sharded.memory_mapped());  // Merged db is materialized.
  EXPECT_GT(pair.sharded.shard_set().num_shards(), 1u);
  EXPECT_EQ(pair.sharded.database().size(), db.size());
  EXPECT_EQ(pair.sharded.database().TotalEvents(), db.TotalEvents());
}

// Every regular task over the merged session matches the single-file one.
TEST(ShardEngineTest, MergedTasksAreByteIdenticalToSingleFile) {
  SequenceDatabase db = RandomDb(11, 40, 12, 8);
  EnginePair pair = MakePair(db, "merged_tasks", 500);
  const EventDictionary& dict_s = pair.single.database().dictionary();
  const EventDictionary& dict_m = pair.sharded.database().dictionary();

  // Each task also resolves the same backend as the single file, and the
  // two sessions pay for the same index builds: one arena index, shared
  // by the pattern and rule tasks.
  ClosedTask closed;
  closed.options.min_support = 3;
  RunReport c_single_run, c_sharded_run;
  Result<PatternSet> c_single =
      pair.single.CollectPatterns(closed, &c_single_run);
  Result<PatternSet> c_sharded =
      pair.sharded.CollectPatterns(closed, &c_sharded_run);
  ASSERT_TRUE(c_single.ok());
  ASSERT_TRUE(c_sharded.ok());
  EXPECT_GT(c_single->size(), 0u);
  EXPECT_EQ(c_single->ToString(dict_s), c_sharded->ToString(dict_m));
  EXPECT_EQ(c_single_run.backend, c_sharded_run.backend);
  EXPECT_EQ(pair.single.index_builds(), pair.sharded.index_builds());

  RulesTask rules;
  rules.options.min_s_support = 3;
  rules.options.min_confidence = 0.7;
  RunReport r_single_run, r_sharded_run;
  Result<RuleSet> r_single = pair.single.CollectRules(rules, &r_single_run);
  Result<RuleSet> r_sharded =
      pair.sharded.CollectRules(rules, &r_sharded_run);
  ASSERT_TRUE(r_single.ok());
  ASSERT_TRUE(r_sharded.ok());
  ASSERT_EQ(r_single->size(), r_sharded->size());
  for (size_t i = 0; i < r_single->size(); ++i) {
    EXPECT_EQ((*r_single)[i].ToString(dict_s),
              (*r_sharded)[i].ToString(dict_m));
  }
  EXPECT_EQ(r_single_run.backend, r_sharded_run.backend);
  EXPECT_EQ(pair.single.index_builds(), pair.sharded.index_builds());
}

// The core property: MineSharded == the single-pass full miner — same
// patterns, same supports, same emission order — over randomized corpora,
// shard bounds, thresholds and thread counts.
TEST(ShardEngineTest, MineShardedIsByteIdenticalToSinglePass) {
  struct Case {
    uint64_t seed;
    size_t traces, max_len, alphabet;
    uint64_t shard_bytes;
    uint64_t min_support;
    size_t max_length;
    size_t threads;
  };
  const std::vector<Case> cases = {
      {1, 30, 10, 5, 300, 2, 0, 1},
      {2, 40, 12, 8, 500, 3, 5, 3},
      {3, 25, 8, 3, 250, 4, 0, 2},
      {4, 50, 9, 10, 400, 2, 4, 1},
      {5, 12, 14, 4, 10'000'000, 3, 0, 3},  // Single shard.
      {6, 35, 11, 6, 260, 5, 6, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    SequenceDatabase db =
        RandomDb(c.seed, c.traces, c.max_len, c.alphabet);
    EnginePair pair =
        MakePair(db, "prop" + std::to_string(c.seed), c.shard_bytes);

    FullPatternsTask task;
    task.options.min_support = c.min_support;
    task.options.max_length = c.max_length;
    task.options.num_threads = c.threads;

    CollectingPatternSink single_sink;
    Result<RunReport> single = pair.single.Mine(task, single_sink);
    ASSERT_TRUE(single.ok()) << single.status().ToString();

    CollectingPatternSink sharded_sink;
    Result<RunReport> sharded = pair.sharded.MineSharded(task, sharded_sink);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    // Same patterns with the same supports, in the same order (ToString
    // renders both, line by line, in emission order).
    EXPECT_GT(single->patterns_emitted, 0u);  // Not vacuously identical.
    EXPECT_EQ(
        single_sink.set().ToString(pair.single.database().dictionary()),
        sharded_sink.set().ToString(pair.sharded.database().dictionary()));
    EXPECT_EQ(single->patterns_emitted, sharded->patterns_emitted);
  }
}

// max_patterns cuts the sharded delivery at exactly the pattern the
// single-pass scan stops at (same order ⇒ same prefix).
TEST(ShardEngineTest, MaxPatternsTruncatesAtTheSamePattern) {
  SequenceDatabase db = RandomDb(21, 40, 12, 6);
  EnginePair pair = MakePair(db, "truncate", 400);
  FullPatternsTask task;
  task.options.min_support = 2;
  task.options.max_patterns = 17;

  CollectingPatternSink single_sink;
  Result<RunReport> single = pair.single.Mine(task, single_sink);
  ASSERT_TRUE(single.ok());
  CollectingPatternSink sharded_sink;
  Result<RunReport> sharded = pair.sharded.MineSharded(task, sharded_sink);
  ASSERT_TRUE(sharded.ok());
  EXPECT_TRUE(single->truncated);
  EXPECT_TRUE(sharded->truncated);
  EXPECT_EQ(
      single_sink.set().ToString(pair.single.database().dictionary()),
      sharded_sink.set().ToString(pair.sharded.database().dictionary()));
}

// Mines \p smdbset with MineSharded at \p threads (phase-1 cache on) and
// expects the single pass over \p db, rendered the same way; returns the
// run's report.
RunReport ExpectShardedMatchesSinglePass(const SequenceDatabase& db,
                                         const std::string& smdbset,
                                         uint64_t min_support,
                                         size_t threads) {
  FullPatternsTask task;
  task.options.min_support = min_support;
  task.options.num_threads = threads;
  Result<Engine> single = Engine::Create(db);
  Result<Engine> sharded = Engine::FromShardSet(smdbset);
  EXPECT_TRUE(single.ok() && sharded.ok());
  if (!single.ok() || !sharded.ok()) return RunReport{};
  CollectingPatternSink single_sink, sharded_sink;
  EXPECT_TRUE(single->Mine(task, single_sink).ok());
  Result<RunReport> run = sharded->MineSharded(task, sharded_sink);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return RunReport{};
  EXPECT_GT(single_sink.set().size(), 0u);  // Not vacuously identical.
  EXPECT_EQ(single_sink.set().ToString(single->database().dictionary()),
            sharded_sink.set().ToString(sharded->database().dictionary()));
  return *run;
}

// Phase-2 coverage. On a shared alphabet cut into tiny shards, candidates
// are reported by some shards but not others, so phase 2 both drops
// candidates on the occurrence-cap bound and recounts (candidate, shard)
// pairs with the oracle. Modules with disjoint alphabets, one per shard,
// leave every candidate's events in its one shard: nothing to recount.
// Either way the output equals the single pass at every thread count,
// with the phase-1 cache cold and warm.
TEST(ShardEngineTest, PhaseTwoBoundsAndRecountsMatchSinglePass) {
  QuestParams params;
  params.d_sequences_thousands = 0.06;
  params.c_avg_sequence_length = 8.0;
  params.n_events_thousands = 0.012;
  params.s_avg_pattern_length = 4.0;
  params.num_seed_patterns = 8;
  params.seed = 19;
  Result<SequenceDatabase> quest = GenerateQuest(params);
  ASSERT_TRUE(quest.ok()) << quest.status().ToString();
  const std::string shared = TempPath("phase2_shared.smdbset");
  ShardWriterOptions writer;
  writer.shard_bytes = 300;
  ASSERT_TRUE(WriteShardedDatabase(*quest, shared, writer).ok());

  // Each module draws from an alphabet of its own and lands in a shard
  // of its own: packed, then appended one module per commit.
  const std::string modular = TempPath("phase2_modular.smdbset");
  SequenceDatabaseBuilder all_modules;
  Rng rng(90);
  writer.shard_bytes = 1 << 20;
  for (int module = 0; module < 4; ++module) {
    std::vector<std::string> lines(15);
    for (std::string& line : lines) {
      for (size_t k = 0, len = 2 + rng.Uniform(7); k < len; ++k) {
        line += "m" + std::to_string(module) + "_ev" +
                std::to_string(rng.Uniform(4)) + " ";
      }
      all_modules.AddTraceFromString(line);
    }
    if (module == 0) {
      SequenceDatabaseBuilder builder;
      for (const std::string& line : lines) builder.AddTraceFromString(line);
      ASSERT_TRUE(
          WriteShardedDatabase(builder.Build(), modular, writer).ok());
      continue;
    }
    Result<AppendSession> opened = AppendSession::Open(modular);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    AppendSession session = opened.TakeValueOrDie();
    for (const std::string& line : lines) {
      ASSERT_TRUE(session.AddTraceFromString(line).ok());
    }
    ASSERT_TRUE(session.Commit().ok());
  }
  const SequenceDatabase modules = all_modules.Build();

  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::remove(Phase1CachePath(shared).c_str());
    std::remove(Phase1CachePath(modular).c_str());
    for (bool warm : {false, true}) {
      SCOPED_TRACE(warm ? "warm" : "cold");
      RunReport run =
          ExpectShardedMatchesSinglePass(*quest, shared, 6, threads);
      EXPECT_GT(run.shards_total, 2u);
      EXPECT_EQ(run.shards_cached, warm ? run.shards_total : 0u);
      EXPECT_GT(run.shard_recounts, 0u);
      EXPECT_GT(run.shard_bound_skips, 0u);
      EXPECT_LT(run.shard_candidates, run.shard_local_patterns);
      RunReport disjoint =
          ExpectShardedMatchesSinglePass(modules, modular, 3, threads);
      EXPECT_EQ(disjoint.shards_total, 4u);
      EXPECT_EQ(disjoint.shards_cached, warm ? 4u : 0u);
      EXPECT_GT(disjoint.shard_candidates, 0u);
      EXPECT_EQ(disjoint.shard_recounts, 0u);
    }
  }
}

TEST(ShardEngineTest, ShardIndexesAreCachedAcrossCalls) {
  SequenceDatabase db = RandomDb(31, 30, 10, 5);
  EnginePair pair = MakePair(db, "cache", 300);
  FullPatternsTask task;
  task.options.min_support = 2;
  CollectingPatternSink sink1, sink2;
  Result<RunReport> first = pair.sharded.MineSharded(task, sink1);
  Result<RunReport> second = pair.sharded.MineSharded(task, sink2);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->index_build_seconds, 0.0);
  EXPECT_EQ(second->index_build_seconds, 0.0);  // Cached per-shard indexes.
}

// Degraded mode end to end: one corrupted shard, quarantine policy, and
// the session mines the healthy subset while the report says what was
// lost.
TEST(ShardEngineTest, QuarantinedShardIsReportedAndMiningSucceeds) {
  SequenceDatabase db = RandomDb(61, 40, 10, 6);
  const std::string smdbset = TempPath("quarantine.smdbset");
  ShardWriterOptions options;
  options.shard_bytes = 400;
  ASSERT_TRUE(WriteShardedDatabase(db, smdbset, options).ok());
  std::string shard0;
  size_t shards_total = 0;
  {
    Result<ShardedDatabase> probe = ShardedDatabase::Open(smdbset);
    ASSERT_TRUE(probe.ok());
    ASSERT_GT(probe->num_shards(), 1u);
    shard0 = probe->shard_path(0);
    shards_total = probe->num_shards();
  }
  {  // Corrupt shard 0 beyond recognition.
    std::ofstream f(shard0, std::ios::binary | std::ios::trunc);
    f << "not an smdb";
  }

  // Default policy: the session refuses to open.
  ASSERT_FALSE(Engine::FromShardSet(smdbset).ok());

  SetOpenOptions open_options;
  open_options.policy = ShardFailurePolicy::kQuarantine;
  Result<Engine> engine = Engine::FromShardSet(smdbset, open_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->shard_set().num_shards(), shards_total - 1);

  FullPatternsTask task;
  task.options.min_support = 2;
  CollectingPatternSink sink;
  Result<RunReport> run = engine->MineSharded(task, sink);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->shards_total, shards_total);
  EXPECT_EQ(run->shards_quarantined, 1u);
  ASSERT_EQ(run->shard_errors.size(), 1u);
  EXPECT_NE(run->shard_errors[0].find("shard 0"), std::string::npos);
  EXPECT_NE(run->ToString().find("quarantined=1"), std::string::npos);

  // The degraded output equals mining the healthy subset directly — i.e.
  // thresholds rescale to the surviving traces, nothing silently counts
  // the lost shard.
  Result<Engine> healthy = Engine::Create(engine->shard_set().Merge());
  ASSERT_TRUE(healthy.ok());
  CollectingPatternSink expected;
  ASSERT_TRUE(healthy->Mine(task, expected).ok());
  EXPECT_EQ(
      sink.set().ToString(engine->database().dictionary()),
      expected.set().ToString(healthy->database().dictionary()));
}

TEST(ShardEngineTest, MineShardedOnUnshardedSessionIsAnError) {
  SequenceDatabase db = RandomDb(41, 10, 8, 4);
  Result<Engine> engine = Engine::Create(db);
  ASSERT_TRUE(engine.ok());
  FullPatternsTask task;
  task.options.min_support = 2;
  CollectingPatternSink sink;
  Result<RunReport> r = engine->MineSharded(task, sink);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardEngineTest, InvalidOptionsAreRejectedBeforeMining) {
  SequenceDatabase db = RandomDb(51, 10, 8, 4);
  EnginePair pair = MakePair(db, "invalid", 300);
  FullPatternsTask task;
  task.options.min_support = 0;  // Validate() rejects this.
  CollectingPatternSink sink;
  Result<RunReport> r = pair.sharded.MineSharded(task, sink);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace specmine
