// The append-equivalence property: appending traces to a packed .smdbset
// through an AppendSession, then mining, is byte-identical to repacking
// the whole corpus from scratch and mining that — across randomized
// corpora, append batches, shard-size bounds, backends, and thread
// counts, with the phase-1 candidate cache on or off. Plus the
// incremental-remine contract (a warm re-mine after an append scans only
// the new shards), cache invalidation (content / threshold / option
// changes miss; stale entries are dropped on rewrite), and crash
// recovery at every append stage (the set always reopens at the old or
// the new generation, never torn).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/phase1_cache.h"
#include "src/support/fault_injection.h"
#include "src/support/random.h"
#include "src/trace/append_session.h"
#include "src/trace/shard_set.h"

namespace specmine {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// A reproducible random corpus as trace lines, so the exact same traces
// can be packed, appended, and repacked.
std::vector<std::string> RandomLines(uint64_t seed, size_t num_traces,
                                     size_t max_length, size_t alphabet) {
  Rng rng(seed);
  std::vector<std::string> lines;
  lines.reserve(num_traces);
  for (size_t t = 0; t < num_traces; ++t) {
    std::string line;
    const size_t len = rng.Uniform(max_length + 1);
    for (size_t k = 0; k < len; ++k) {
      line += "ev" + std::to_string(rng.Uniform(alphabet)) + " ";
    }
    lines.push_back(line);
  }
  return lines;
}

SequenceDatabase DbFromLines(const std::vector<std::string>& lines) {
  SequenceDatabaseBuilder builder;
  for (const std::string& line : lines) builder.AddTraceFromString(line);
  return builder.Build();
}

// Packs \p lines at \p path and removes any phase-1 cache left beside it
// by an earlier test run (same seeds => same digests, which would turn an
// intended cold mine warm).
void PackSet(const std::vector<std::string>& lines, const std::string& path,
             uint64_t shard_bytes) {
  ShardWriterOptions options;
  options.shard_bytes = shard_bytes;
  Status written = WriteShardedDatabase(DbFromLines(lines), path, options);
  EXPECT_TRUE(written.ok()) << written.ToString();
  std::remove(Phase1CachePath(path).c_str());
}

// Appends \p lines to the set at \p path in one committed session and
// returns the committed generation.
uint64_t AppendLines(const std::string& path,
                     const std::vector<std::string>& lines,
                     uint64_t shard_bytes) {
  AppendOptions options;
  options.writer.shard_bytes = shard_bytes;
  Result<AppendSession> opened = AppendSession::Open(path, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return 0;
  AppendSession session = opened.TakeValueOrDie();
  for (const std::string& line : lines) {
    EXPECT_TRUE(session.AddTraceFromString(line).ok());
  }
  Status committed = session.Commit();
  EXPECT_TRUE(committed.ok()) << committed.ToString();
  return session.committed_generation();
}

struct MineOut {
  std::string text;  // PatternSet::ToString — content, supports, order.
  RunReport report;
};

// Opens the set fresh (no session-level caches survive) and runs the
// two-phase sharded miner.
MineOut MineSet(const std::string& path, uint64_t min_support,
                BackendChoice backend, unsigned num_threads, bool use_cache,
                size_t max_length = 0) {
  MineOut out;
  Result<Engine> opened = Engine::FromShardSet(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return out;
  Engine engine = opened.TakeValueOrDie();
  FullPatternsTask task;
  task.options.min_support = min_support;
  task.options.backend = backend;
  task.options.num_threads = num_threads;
  task.options.max_length = max_length;
  task.phase1_cache = use_cache;
  CollectingPatternSink sink;
  Result<RunReport> run = engine.MineSharded(task, sink);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return out;
  out.report = *run;
  out.text = sink.TakeSet().ToString(engine.database().dictionary());
  return out;
}

// --------------------------------------------------------------------------
// The core property: append-then-mine == repack-then-mine, byte for byte.

TEST(AppendTest, AppendThenMineMatchesRepackAcrossConfigs) {
  const BackendChoice kBackends[] = {BackendChoice::kAuto,
                                     BackendChoice::kHybrid,
                                     BackendChoice::kBitmap};
  for (uint64_t seed : {3u, 19u}) {
    // The batch uses a larger alphabet, so appends also extend the
    // merged dictionary with names the base set never saw.
    std::vector<std::string> base = RandomLines(seed, 30, 10, 6);
    std::vector<std::string> extra = RandomLines(seed + 100, 15, 10, 8);
    std::vector<std::string> all = base;
    all.insert(all.end(), extra.begin(), extra.end());

    for (uint64_t shard_bytes : {300u, 1200u}) {
      const std::string stem =
          "equiv_" + std::to_string(seed) + "_" + std::to_string(shard_bytes);
      const std::string appended = TempPath(stem + ".smdbset");
      const std::string repacked = TempPath(stem + "_repack.smdbset");
      PackSet(base, appended, shard_bytes);
      ASSERT_EQ(AppendLines(appended, extra, shard_bytes), 1u);
      PackSet(all, repacked, shard_bytes);

      // Backends and threads cannot change the output, so one repack
      // mine is the expectation for every appended-set config.
      const std::string expected =
          MineSet(repacked, 2, BackendChoice::kAuto, 1, false).text;
      EXPECT_FALSE(expected.empty());
      for (BackendChoice backend : kBackends) {
        for (unsigned threads : {1u, 4u}) {
          EXPECT_EQ(MineSet(appended, 2, backend, threads, false).text,
                    expected)
              << "seed=" << seed << " shard_bytes=" << shard_bytes;
        }
      }

      // Cache path: the cold miss and the warm hit are both identical —
      // and the warm hit stays identical under a different backend and
      // thread count (the cache key is threshold + length cap only).
      MineOut cold = MineSet(appended, 2, BackendChoice::kAuto, 1, true);
      MineOut warm = MineSet(appended, 2, BackendChoice::kBitmap, 4, true);
      EXPECT_EQ(cold.text, expected);
      EXPECT_EQ(warm.text, expected);
      EXPECT_EQ(warm.report.shards_cached, warm.report.shards_total);
      EXPECT_EQ(warm.report.shards_scanned, 0u);
    }
  }
}

// --------------------------------------------------------------------------
// Warm-cache provenance: a repeat mine replays every shard from the
// on-disk cache and expands no phase-1 nodes at all.

TEST(AppendTest, WarmCacheRunIsByteIdenticalAndSkipsAllScans) {
  const std::string path = TempPath("warm.smdbset");
  PackSet(RandomLines(5, 40, 10, 6), path, 400);

  MineOut cold = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  ASSERT_GT(cold.report.shards_total, 1u);
  EXPECT_EQ(cold.report.shards_scanned, cold.report.shards_total);
  EXPECT_EQ(cold.report.shards_cached, 0u);
  EXPECT_TRUE(FileExists(Phase1CachePath(path)));

  MineOut warm = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  EXPECT_EQ(warm.text, cold.text);
  EXPECT_EQ(warm.report.shards_cached, warm.report.shards_total);
  EXPECT_EQ(warm.report.shards_scanned, 0u);
  for (size_t nodes : warm.report.shard_phase1_nodes) EXPECT_EQ(nodes, 0u);
}

// --------------------------------------------------------------------------
// The incremental contract: after an append, a warm re-mine scans
// exactly the new shards — every pre-existing shard is replayed from the
// cache at zero phase-1 nodes — and still matches a cache-off mine.

TEST(AppendTest, AppendedReMineScansOnlyTheNewShards) {
  const std::string path = TempPath("incremental.smdbset");
  PackSet(RandomLines(7, 40, 10, 6), path, 400);

  MineOut before = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  const size_t old_shards = before.report.shards_total;
  ASSERT_GT(old_shards, 1u);

  AppendLines(path, RandomLines(107, 20, 10, 8), 400);
  MineOut incremental = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  ASSERT_GT(incremental.report.shards_total, old_shards);
  EXPECT_EQ(incremental.report.shards_cached, old_shards);
  EXPECT_EQ(incremental.report.shards_scanned,
            incremental.report.shards_total - old_shards);
  ASSERT_EQ(incremental.report.shard_phase1_nodes.size(),
            incremental.report.shards_total);
  for (size_t i = 0; i < old_shards; ++i) {
    EXPECT_EQ(incremental.report.shard_phase1_nodes[i], 0u) << "shard " << i;
  }

  MineOut full = MineSet(path, 2, BackendChoice::kAuto, 1, false);
  EXPECT_EQ(incremental.text, full.text);
}

// --------------------------------------------------------------------------
// Cache invalidation: a threshold or option change misses; entries for
// both fingerprints then coexist, so flipping back stays warm.

TEST(AppendTest, ThresholdOrOptionChangeMissesTheCache) {
  const std::string path = TempPath("fingerprint.smdbset");
  PackSet(RandomLines(9, 40, 10, 6), path, 400);

  MineOut s2 = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  const size_t shards = s2.report.shards_total;
  ASSERT_GT(shards, 1u);

  // Threshold change: cold, then warm on repeat.
  MineOut s3 = MineSet(path, 3, BackendChoice::kAuto, 1, true);
  EXPECT_EQ(s3.report.shards_cached, 0u);
  EXPECT_EQ(MineSet(path, 3, BackendChoice::kAuto, 1, true)
                .report.shards_cached,
            shards);

  // Length-cap change: cold, then warm on repeat.
  MineOut capped = MineSet(path, 2, BackendChoice::kAuto, 1, true, 2);
  EXPECT_EQ(capped.report.shards_cached, 0u);
  EXPECT_EQ(MineSet(path, 2, BackendChoice::kAuto, 1, true, 2)
                .report.shards_cached,
            shards);

  // The original fingerprint survived both rewrites (the saver carries
  // still-current entries of other fingerprints forward).
  EXPECT_EQ(MineSet(path, 2, BackendChoice::kAuto, 1, true)
                .report.shards_cached,
            shards);
}

// Cache invalidation: rewriting a shard's bytes (here: repacking a
// different corpus over the same manifest path) changes its content
// digest, so nothing is replayed from the stale cache — and the rewrite
// that follows drops every entry whose shard no longer exists.

TEST(AppendTest, ShardContentChangeMissesTheCacheAndDropsStaleEntries) {
  const std::string path = TempPath("content.smdbset");
  PackSet(RandomLines(13, 40, 10, 6), path, 400);
  MineOut first = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  ASSERT_GT(first.report.shards_total, 1u);
  EXPECT_TRUE(FileExists(Phase1CachePath(path)));

  // Repack different traces over the same path, keeping the now-stale
  // cache file in place.
  ShardWriterOptions options;
  options.shard_bytes = 400;
  ASSERT_TRUE(WriteShardedDatabase(DbFromLines(RandomLines(14, 40, 10, 6)),
                                   path, options)
                  .ok());

  MineOut after = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  EXPECT_EQ(after.report.shards_cached, 0u);
  EXPECT_EQ(after.text, MineSet(path, 2, BackendChoice::kAuto, 1, false).text);

  // The rewrite garbage-collected the old generation's entries: every
  // surviving digest belongs to a current shard.
  Result<ShardedDatabase> set = ShardedDatabase::Open(path);
  ASSERT_TRUE(set.ok());
  std::vector<uint64_t> digests;
  for (size_t i = 0; i < set->num_shards(); ++i) {
    digests.push_back(set->ComputeShardDigest(i));
  }
  Result<Phase1Cache> cache = LoadPhase1Cache(Phase1CachePath(path));
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_FALSE(cache->entries.empty());
  for (const Phase1CacheEntry& entry : cache->entries) {
    EXPECT_NE(std::find(digests.begin(), digests.end(), entry.shard_digest),
              digests.end())
        << "stale cache entry survived the rewrite";
  }
}

// --------------------------------------------------------------------------
// Crash recovery: a fault at any append stage leaves the set at its old
// generation, fully mineable, with no uncommitted shard file behind; a
// clean retry then lands the new generation.

TEST(AppendTest, FaultedAppendLeavesTheOldGenerationIntact) {
  std::vector<std::string> base = RandomLines(21, 20, 8, 5);
  std::vector<std::string> extra = RandomLines(121, 8, 8, 6);
  std::vector<std::string> all = base;
  all.insert(all.end(), extra.begin(), extra.end());

  // countdown 0 fails the tail shard's rename; countdown 1 lets the
  // shard land and fails the manifest's rename instead.
  for (int countdown : {0, 1}) {
    const std::string path =
        TempPath("crash_" + std::to_string(countdown) + ".smdbset");
    PackSet(base, path, 1u << 20);  // One sealed shard: .0000.smdb.
    const std::string baseline =
        MineSet(path, 2, BackendChoice::kAuto, 1, false).text;
    const std::string tail_shard =
        TempPath("crash_" + std::to_string(countdown) + ".0001.smdb");
    std::remove(tail_shard.c_str());  // Leftover from a previous run.

    {
      ScopedFault fault("format_util.rename", countdown,
                        Status::IOError("injected crash"));
      Result<AppendSession> opened = AppendSession::Open(path);
      ASSERT_TRUE(opened.ok());
      AppendSession session = opened.TakeValueOrDie();
      for (const std::string& line : extra) {
        ASSERT_TRUE(session.AddTraceFromString(line).ok());
      }
      EXPECT_FALSE(session.Commit().ok());
    }

    // The old manifest — and so the old generation — is fully intact,
    // and the unreferenced tail file was cleaned up.
    EXPECT_FALSE(FileExists(tail_shard));
    Result<ShardSetManifest> manifest = ReadShardSetManifest(path);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_EQ(manifest->generation, 0u);
    EXPECT_EQ(manifest->total_sequences, base.size());
    EXPECT_EQ(MineSet(path, 2, BackendChoice::kAuto, 1, false).text,
              baseline);

    // A clean append after the crash succeeds and matches the repack.
    ASSERT_EQ(AppendLines(path, extra, 1u << 20), 1u);
    const std::string repacked =
        TempPath("crash_" + std::to_string(countdown) + "_repack.smdbset");
    PackSet(all, repacked, 1u << 20);
    EXPECT_EQ(MineSet(path, 2, BackendChoice::kAuto, 1, false).text,
              MineSet(repacked, 2, BackendChoice::kAuto, 1, false).text);
  }
}

// A failed phase-1 cache persist must not fail the mine — the cache is
// an accelerator, not a correctness structure.

TEST(AppendTest, FailedCachePersistDoesNotFailTheMine) {
  const std::string path = TempPath("cache_persist.smdbset");
  PackSet(RandomLines(23, 30, 10, 6), path, 400);
  const std::string expected =
      MineSet(path, 2, BackendChoice::kAuto, 1, false).text;

  {
    ScopedFault fault("phase1_cache.save", 0, Status::IOError("injected"));
    MineOut mined = MineSet(path, 2, BackendChoice::kAuto, 1, true);
    EXPECT_EQ(mined.text, expected);
  }
  EXPECT_FALSE(FileExists(Phase1CachePath(path)));

  // The next mine is cold again (nothing was persisted) but correct,
  // and persists normally.
  MineOut retry = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  EXPECT_EQ(retry.text, expected);
  EXPECT_EQ(retry.report.shards_cached, 0u);
  EXPECT_TRUE(FileExists(Phase1CachePath(path)));
}

// A corrupt cache file is treated as empty: the mine scans cold, stays
// correct, and rewrites a healthy cache.

TEST(AppendTest, CorruptCacheFileIsIgnoredAndRewritten) {
  const std::string path = TempPath("cache_corrupt.smdbset");
  PackSet(RandomLines(25, 30, 10, 6), path, 400);
  MineOut cold = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  ASSERT_TRUE(FileExists(Phase1CachePath(path)));

  {
    std::ofstream out(Phase1CachePath(path), std::ios::trunc);
    out << "not a cache file";
  }
  EXPECT_FALSE(LoadPhase1Cache(Phase1CachePath(path)).ok());

  MineOut mined = MineSet(path, 2, BackendChoice::kAuto, 1, true);
  EXPECT_EQ(mined.text, cold.text);
  EXPECT_EQ(mined.report.shards_cached, 0u);
  EXPECT_TRUE(LoadPhase1Cache(Phase1CachePath(path)).ok());
}

// --------------------------------------------------------------------------
// The ShardWriter sticky-failure pin: a failed Finish() deletes the
// shard files it wrote since the last commit — no manifest will ever
// reference them, and leaving them behind would shadow the paths the
// next pack or append writes.

TEST(AppendTest, FailedFinishRemovesUncommittedShardFiles) {
  const std::string path = TempPath("sticky.smdbset");
  const std::string shard0 = TempPath("sticky.0000.smdb");
  ShardWriter writer(path);
  ASSERT_TRUE(writer.AddTraceFromString("a b a b").ok());
  ASSERT_TRUE(writer.CutShard().ok());
  ASSERT_TRUE(FileExists(shard0));
  ASSERT_TRUE(writer.AddTraceFromString("b c").ok());

  {
    // First rename (the tail shard written by Finish) fails.
    ScopedFault fault("format_util.rename", 0, Status::IOError("injected"));
    EXPECT_FALSE(writer.Finish().ok());
  }
  EXPECT_FALSE(FileExists(shard0));
  EXPECT_FALSE(FileExists(path));
}

// --------------------------------------------------------------------------
// Seal boundaries and generations.

TEST(AppendTest, TimeBoundarySealsAStaleTail) {
  const std::string path = TempPath("time_seal.smdbset");
  PackSet(RandomLines(27, 10, 8, 5), path, 1u << 20);  // One shard.

  AppendOptions options;
  options.seal_after_seconds = 0.05;
  Result<AppendSession> opened = AppendSession::Open(path, options);
  ASSERT_TRUE(opened.ok());
  AppendSession session = opened.TakeValueOrDie();
  ASSERT_TRUE(session.AddTraceFromString("x y x").ok());
  EXPECT_EQ(session.shards(), 2u);  // Base shard + open tail.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The stale tail is sealed before this trace, which starts a new one.
  ASSERT_TRUE(session.AddTraceFromString("y z").ok());
  EXPECT_EQ(session.shards(), 3u);
  ASSERT_TRUE(session.Commit().ok());

  Result<ShardSetManifest> manifest = ReadShardSetManifest(path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->shards.size(), 3u);
}

TEST(AppendTest, GenerationAdvancesByOnePerCommit) {
  const std::string path = TempPath("generation.smdbset");
  PackSet(RandomLines(29, 10, 8, 5), path, 1u << 20);
  Result<ShardSetManifest> packed = ReadShardSetManifest(path);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->generation, 0u);

  {
    Result<AppendSession> opened = AppendSession::Open(path);
    ASSERT_TRUE(opened.ok());
    AppendSession session = opened.TakeValueOrDie();
    EXPECT_EQ(session.base_generation(), 0u);
    ASSERT_TRUE(session.AddTraceFromString("p q").ok());
    ASSERT_TRUE(session.Commit().ok());
    EXPECT_EQ(session.committed_generation(), 1u);
    // The session stays open: another batch, another commit, +1 again.
    ASSERT_TRUE(session.AddTraceFromString("q r").ok());
    ASSERT_TRUE(session.Commit().ok());
    EXPECT_EQ(session.committed_generation(), 2u);
  }

  Result<AppendSession> second = AppendSession::Open(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->base_generation(), 2u);
  ASSERT_EQ(AppendLines(path, {"r s"}, 1u << 20), 3u);

  Result<ShardSetManifest> final_manifest = ReadShardSetManifest(path);
  ASSERT_TRUE(final_manifest.ok());
  EXPECT_EQ(final_manifest->generation, 3u);
  EXPECT_EQ(final_manifest->total_sequences, 13u);
}

}  // namespace
}  // namespace specmine
