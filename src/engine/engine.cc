#include "src/engine/engine.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/engine/phase1_cache.h"
#include "src/engine/shard_exec.h"
#include "src/rulemine/backward_rules.h"
#include "src/support/cancel.h"
#include "src/support/fault_injection.h"
#include "src/support/stopwatch.h"
#include "src/trace/trace_io.h"

namespace specmine {

namespace {

// Replays a materialized pattern set into a sink, honoring the sink's stop
// request. Returns the number delivered; *stopped reports an early stop.
size_t DeliverPatterns(const PatternSet& set, PatternSink& sink,
                       bool* stopped) {
  size_t delivered = 0;
  for (const MinedPattern& item : set.items()) {
    ++delivered;
    if (!sink.Consume(item.pattern, item.support)) {
      *stopped = true;
      return delivered;
    }
  }
  return delivered;
}

size_t DeliverRules(const RuleSet& set, RuleSink& sink, bool* stopped) {
  size_t delivered = 0;
  for (const Rule& rule : set.rules()) {
    ++delivered;
    if (!sink.Consume(rule)) {
      *stopped = true;
      return delivered;
    }
  }
  return delivered;
}

RunReport FromIterStats(const char* task, const IterMinerStats& stats,
                        double index_build_seconds) {
  RunReport report;
  report.task = task;
  report.nodes_visited = stats.nodes_visited;
  report.patterns_emitted = stats.patterns_emitted;
  report.subtrees_pruned = stats.subtrees_pruned;
  report.truncated = stats.truncated;
  report.index_build_seconds = index_build_seconds;
  report.mine_seconds = stats.mine_seconds;
  return report;
}

RunReport FromSeqStats(const char* task, const SeqMinerStats& stats,
                       double mine_seconds) {
  RunReport report;
  report.task = task;
  report.nodes_visited = stats.nodes_visited;
  report.patterns_emitted = stats.patterns_emitted;
  report.truncated = stats.truncated;
  report.mine_seconds = mine_seconds;
  return report;
}

// Converts a pool-worker error or a fired cancel token into the task's
// failure Status; OK when the run completed normally. Checked after
// mining (and for streaming tasks after the sink saw its prefix), so a
// cancelled run still returns kCancelled / kDeadlineExceeded through the
// Result<RunReport> plumbing.
Status FinishRun(const Status& worker_error, const CancelToken* cancel) {
  if (!worker_error.ok()) return worker_error;
  if (cancel != nullptr && cancel->fired()) return cancel->StopStatus();
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction.

Result<Engine> Engine::Create(SequenceDatabase db) {
  SPECMINE_RETURN_NOT_OK(CheckIndexable(db));
  return Engine(std::move(db));
}

Result<Engine> Engine::FromTextTraceFile(const std::string& path) {
  Result<SequenceDatabase> db = ReadTextTraceFile(path);
  if (!db.ok()) return db.status();
  return Create(db.TakeValueOrDie());
}

Result<Engine> Engine::FromCsvTraceFile(const std::string& path,
                                        const CsvTraceOptions& options) {
  Result<SequenceDatabase> db = ReadCsvTraceFile(path, options);
  if (!db.ok()) return db.status();
  return Create(db.TakeValueOrDie());
}

Result<Engine> Engine::FromBinaryFile(const std::string& path) {
  return FromBinaryFile(path, SmdbOpenOptions{});
}

Result<Engine> Engine::FromBinaryFile(const std::string& path,
                                      const SmdbOpenOptions& options) {
  Result<MappedDatabase> mapped = MappedDatabase::Open(path, options);
  if (!mapped.ok()) return mapped.status();
  SPECMINE_RETURN_NOT_OK(CheckIndexable(mapped->db()));
  // Copying a view database shares the mapped storage, so the session's
  // db_ points straight into the mapping kept alive alongside it.
  Engine engine(mapped->db());
  engine.mapping_ =
      std::make_unique<MappedDatabase>(mapped.TakeValueOrDie());
  return engine;
}

Result<Engine> Engine::FromShardSet(const std::string& path) {
  return FromShardSet(path, SetOpenOptions{});
}

Result<Engine> Engine::FromShardSet(const std::string& path,
                                    const SetOpenOptions& options) {
  Result<ShardedDatabase> set = ShardedDatabase::Open(path, options);
  if (!set.ok()) return set.status();
  // Every shard must be indexable on its own (MineSharded builds
  // per-shard indexes) and so must the concatenation; both are rejected
  // up front so the cached-index accessors cannot fail later. The
  // concatenation bound needs no merged arena: total events come from the
  // manifest, and per-sequence lengths are unchanged by merging (each
  // shard's own check covers them).
  for (size_t i = 0; i < set->num_shards(); ++i) {
    SPECMINE_RETURN_NOT_OK(CheckIndexable(set->shard(i)));
  }
  if (set->TotalEvents() >= kNoPos) {
    return Status::OutOfRange(
        "shard set has " + std::to_string(set->TotalEvents()) +
        " events merged, beyond the 2^32-2 the index's uint32 offsets can "
        "address");
  }
  // The merged arena is not built here: MineSharded never needs it, and
  // MaterializeLocked() builds it once, on first use by any other task.
  Engine engine;
  engine.shard_set_ =
      std::make_unique<ShardedDatabase>(set.TakeValueOrDie());
  return engine;
}

uint64_t Engine::AbsoluteSupport(double fraction) const {
  // num_sequences() reads manifest metadata on sharded sessions, so the
  // threshold never forces a merge (and never races materialization).
  double raw = fraction * static_cast<double>(num_sequences());
  uint64_t abs = static_cast<uint64_t>(std::ceil(raw - 1e-9));
  return abs > 1 ? abs : 1;
}

// ---------------------------------------------------------------------------
// Cached infrastructure.

void Engine::MaterializeLocked() const {
  if (db_ != nullptr) return;
  db_ = std::make_unique<SequenceDatabase>(shard_set_->Merge());
}

const SequenceDatabase& Engine::database() const {
  {
    std::lock_guard<std::mutex> lock(sync_->cache_mu);
    MaterializeLocked();
  }
  // Published caches are immutable and never reset, so the reference
  // stays valid after the lock drops.
  return *db_;
}

Result<const HybridIndex*> Engine::EnsureBackend(
    BackendChoice choice, double* build_seconds) const {
  *build_seconds = 0.0;
  // Concurrent cold callers serialize here; exactly one pays the build
  // and the rest observe the published cache (a zero build_seconds — the
  // cache-hit signal the server's metrics count). A sharded session
  // resolves over its materialized merged arena, so it holds the same one
  // index per layout as a single-file session.
  std::lock_guard<std::mutex> lock(sync_->cache_mu);
  MaterializeLocked();
  const BackendKind kind = ResolveBackendKind(choice, *db_);
  const bool bitmap = kind == BackendKind::kBitmap;
  std::unique_ptr<HybridIndex>& slot = bitmap ? bitmap_index_ : hybrid_index_;
  if (slot == nullptr) {
    SPECMINE_RETURN_NOT_OK(CheckIndexable(*db_));
    // The bitmap layout's table is alphabet x arena bits: cap it before
    // allocating.
    if (bitmap) SPECMINE_RETURN_NOT_OK(CheckBitmapIndexable(*db_));
    Stopwatch sw;
    slot = std::make_unique<HybridIndex>(*db_, DenseCutoffFor(kind));
    *build_seconds = sw.ElapsedSeconds();
    sync_->index_builds.fetch_add(1, std::memory_order_acq_rel);
  }
  return slot.get();
}

const HybridIndex& Engine::backend(BackendChoice choice) const {
  double unused = 0.0;
  Result<const HybridIndex*> index = EnsureBackend(choice, &unused);
  if (!index.ok()) {
    std::fprintf(stderr, "Engine::backend(): %s\n",
                 index.status().ToString().c_str());
    std::abort();  // The checked factories make auto/hybrid unreachable;
                   // explicit kBitmap can exceed the table cap — use
                   // Mine (Status) for untrusted sizes.
  }
  return **index;
}

const UnitDatabase& Engine::Units() const {
  std::lock_guard<std::mutex> lock(sync_->cache_mu);
  MaterializeLocked();  // The unit view needs the merged arena.
  if (units_ == nullptr) {
    units_ = std::make_unique<UnitDatabase>(
        UnitDatabase::WholeSequences(*db_));
  }
  return *units_;
}

Engine::PoolLease Engine::LeasePool(size_t requested_threads) const {
  const size_t resolved = ThreadPool::ResolveThreads(requested_threads);
  if (resolved <= 1) return PoolLease(this, nullptr);
  {
    std::lock_guard<std::mutex> lock(sync_->pool_mu);
    for (auto it = idle_pools_.begin(); it != idle_pools_.end(); ++it) {
      if ((*it)->num_threads() == resolved) {
        std::unique_ptr<ThreadPool> pool = std::move(*it);
        idle_pools_.erase(it);
        return PoolLease(this, std::move(pool));
      }
    }
  }
  // No matching idle pool: spawn outside the lock (thread creation is the
  // expensive part and must not serialize other leases).
  return PoolLease(this, std::make_unique<ThreadPool>(resolved));
}

void Engine::ReturnPool(std::unique_ptr<ThreadPool> pool) const {
  // Bound the idle cache: a burst of concurrent mines must not leave a
  // pile of sleeping worker threads behind for the session's lifetime.
  constexpr size_t kMaxIdlePools = 4;
  std::lock_guard<std::mutex> lock(sync_->pool_mu);
  if (idle_pools_.size() < kMaxIdlePools) {
    idle_pools_.push_back(std::move(pool));
  }
  // Else: the pool is destroyed here (workers join) as `pool` goes out of
  // scope.
}

Engine::PoolLease::~PoolLease() {
  if (pool_ != nullptr) session_->ReturnPool(std::move(pool_));
}

template <typename Task>
Status Engine::Begin(const Task& task) const {
  SPECMINE_RETURN_NOT_OK(Validate(task));
  // num_sequences() reads manifest metadata on sharded sessions — the
  // preamble must not force a merge.
  if (num_sequences() == 0) {
    return Status::InvalidArgument("database is empty; nothing to mine");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Iterative pattern tasks (index-backed).

Result<RunReport> Engine::Mine(const FullPatternsTask& task,
                               PatternSink& sink) const {
  SPECMINE_RETURN_NOT_OK(Begin(task));
  double build_seconds = 0.0;
  Result<const HybridIndex*> index =
      EnsureBackend(task.options.backend, &build_seconds);
  if (!index.ok()) return index.status();
  IterMinerStats stats;
  PoolLease lease = LeasePool(task.options.num_threads);
  ScanFrequentIterative(
      **index, task.options,
      [&sink](const Pattern& pattern, uint64_t support) {
        return sink.Consume(pattern, support);
      },
      &stats, lease.pool());
  // The sink has already seen its prefix of the deterministic emission
  // order; a stopped run reports that as a Status.
  SPECMINE_RETURN_NOT_OK(FinishRun(stats.error, task.options.cancel));
  RunReport report = FromIterStats("full-patterns", stats, build_seconds);
  report.backend = (*index)->name();
  return report;
}

Result<RunReport> Engine::Mine(const ClosedTask& task,
                               PatternSink& sink) const {
  SPECMINE_RETURN_NOT_OK(Begin(task));
  double build_seconds = 0.0;
  Result<const HybridIndex*> index =
      EnsureBackend(task.options.backend, &build_seconds);
  if (!index.ok()) return index.status();
  IterMinerStats stats;
  PoolLease lease = LeasePool(task.options.num_threads);
  PatternSet mined =
      MineClosedIterative(**index, task.options, &stats, lease.pool());
  SPECMINE_RETURN_NOT_OK(FinishRun(stats.error, task.options.cancel));
  RunReport report = FromIterStats("closed-patterns", stats, build_seconds);
  report.backend = (*index)->name();
  bool stopped = false;
  report.patterns_emitted = DeliverPatterns(mined, sink, &stopped);
  report.truncated = report.truncated || stopped;
  return report;
}

Result<RunReport> Engine::Mine(const GeneratorsTask& task,
                               PatternSink& sink) const {
  SPECMINE_RETURN_NOT_OK(Begin(task));
  double build_seconds = 0.0;
  Result<const HybridIndex*> index =
      EnsureBackend(task.options.backend, &build_seconds);
  if (!index.ok()) return index.status();
  IterMinerStats stats;
  PoolLease lease = LeasePool(task.options.num_threads);
  PatternSet mined =
      MineIterativeGenerators(**index, task.options, &stats, lease.pool());
  SPECMINE_RETURN_NOT_OK(FinishRun(stats.error, task.options.cancel));
  RunReport report = FromIterStats("generators", stats, build_seconds);
  report.backend = (*index)->name();
  bool stopped = false;
  report.patterns_emitted = DeliverPatterns(mined, sink, &stopped);
  report.truncated = report.truncated || stopped;
  return report;
}

// ---------------------------------------------------------------------------
// The sharded execution path.

Status Engine::EnsureShardBackends(BackendChoice choice,
                                   std::vector<const HybridIndex*>* indexes,
                                   double* build_seconds, ThreadPool* pool,
                                   size_t num_threads) const {
  *build_seconds = 0.0;
  indexes->clear();
  // Serializes concurrent sharded tasks racing into cold shards: one
  // caller builds the missing per-shard indexes (in parallel on its own
  // pool — the workers never touch cache_mu), the rest reuse them.
  std::lock_guard<std::mutex> lock(sync_->cache_mu);
  const size_t num_shards = shard_set_->num_shards();
  if (num_shards == 0) return Status::OK();
  if (shard_bitmap_indexes_.empty()) {
    shard_bitmap_indexes_.resize(num_shards);
  }
  if (shard_hybrid_indexes_.empty()) {
    shard_hybrid_indexes_.resize(num_shards);
  }
  // Resolve the layout per shard — the chooser runs on each shard's own
  // density, so a corpus mixing dense protocol modules with sparse ones
  // gets the right layout for each.
  std::vector<BackendKind> kinds(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    kinds[i] = ResolveBackendKind(choice, shard_set_->shard(i));
    if (kinds[i] == BackendKind::kBitmap) {
      SPECMINE_RETURN_NOT_OK(CheckBitmapIndexable(shard_set_->shard(i)));
    }
  }
  const auto slot = [&](size_t i) -> std::unique_ptr<HybridIndex>& {
    return kinds[i] == BackendKind::kBitmap ? shard_bitmap_indexes_[i]
                                            : shard_hybrid_indexes_[i];
  };
  // Build whatever is missing, one job per shard on the session pool.
  // Slots are distinct, so the fan-out needs no locking.
  std::vector<size_t> missing;
  for (size_t i = 0; i < num_shards; ++i) {
    if (slot(i) == nullptr) missing.push_back(i);
  }
  if (!missing.empty()) {
    Stopwatch sw;
    auto build_one = [&](size_t m) {
      const size_t i = missing[m];
      slot(i) = std::make_unique<HybridIndex>(shard_set_->shard(i),
                                              DenseCutoffFor(kinds[i]));
    };
    SPECMINE_RETURN_NOT_OK(ThreadPool::ParallelForShared(
        pool, num_threads, missing.size(), build_one));
    *build_seconds = sw.ElapsedSeconds();
  }
  indexes->reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) indexes->push_back(slot(i).get());
  return Status::OK();
}

const std::vector<uint64_t>& Engine::ShardDigests() const {
  std::lock_guard<std::mutex> lock(sync_->cache_mu);
  if (shard_digests_.size() != shard_set_->num_shards()) {
    shard_digests_.resize(shard_set_->num_shards());
    for (size_t i = 0; i < shard_digests_.size(); ++i) {
      shard_digests_[i] = shard_set_->ComputeShardDigest(i);
    }
  }
  return shard_digests_;
}

Result<RunReport> Engine::MineSharded(const FullPatternsTask& task,
                                      PatternSink& sink) const {
  if (shard_set_ == nullptr) {
    return Status::InvalidArgument(
        "MineSharded requires a session opened with Engine::FromShardSet");
  }
  SPECMINE_RETURN_NOT_OK(Begin(task));
  SPECMINE_RETURN_NOT_OK(CheckFault("engine.mine_sharded"));
  PoolLease lease = LeasePool(task.options.num_threads);
  ThreadPool* pool = lease.pool();
  const size_t num_threads =
      ThreadPool::ResolveThreads(task.options.num_threads);
  double build_seconds = 0.0;
  std::vector<const HybridIndex*> indexes;
  SPECMINE_RETURN_NOT_OK(EnsureShardBackends(
      task.options.backend, &indexes, &build_seconds, pool, num_threads));
  // The phase-1 candidate cache lives beside the manifest. Loading
  // tolerates anything (missing, torn, foreign — all mean "empty"): the
  // cache only accelerates, it never decides output.
  const bool use_cache =
      task.phase1_cache && !shard_set_->manifest_path().empty();
  const std::string cache_path =
      use_cache ? Phase1CachePath(shard_set_->manifest_path()) : std::string();
  Phase1Cache cache_loaded;
  Phase1Cache cache_updated;
  ShardCacheIO cache_io;
  if (use_cache) {
    Result<Phase1Cache> from_disk = LoadPhase1Cache(cache_path);
    if (from_disk.ok()) cache_loaded = std::move(*from_disk);
    cache_io.loaded = &cache_loaded;
    cache_io.updated = &cache_updated;
    cache_io.shard_digests = ShardDigests();
  }
  ShardExecStats stats;
  PatternSet mined =
      MineShardedFull(*shard_set_, indexes, task.options, &stats, pool,
                      use_cache ? &cache_io : nullptr);
  if (!stats.error.ok()) return stats.error;
  if (use_cache && !cache_updated.entries.empty()) {
    // Carry over loaded entries for shards that still exist but were
    // mined under a different fingerprint (another threshold's cache
    // stays warm); entries for shards no longer in the set are dropped —
    // that rewrite is the cache's garbage collection.
    for (Phase1CacheEntry& old : cache_loaded.entries) {
      bool current_shard = false;
      for (size_t i = 0; i < cache_io.shard_digests.size(); ++i) {
        if (cache_io.shard_digests[i] == old.shard_digest) {
          current_shard = true;
          break;
        }
      }
      if (current_shard &&
          cache_updated.Find(old.shard_digest, old.remap_digest,
                             old.options_fingerprint) == nullptr) {
        cache_updated.entries.push_back(std::move(old));
      }
    }
    // A failed save (disk full, injected fault) costs the next run a
    // re-scan, nothing more — never fail the mine for it.
    std::lock_guard<std::mutex> lock(sync_->cache_mu);
    Status saved = SavePhase1Cache(cache_path, cache_updated);
    (void)saved;
  }
  RunReport report;
  report.task = "full-patterns-sharded";
  report.shards_total = shard_set_->open_report().shards_total;
  report.shards_quarantined = shard_set_->open_report().quarantined.size();
  for (const QuarantinedShard& q : shard_set_->open_report().quarantined) {
    report.shard_errors.push_back("shard " + std::to_string(q.index) + " (" +
                                  q.path + "): " + q.error);
  }
  if (!indexes.empty()) {
    report.backend = indexes.front()->name();
    for (const HybridIndex* index : indexes) {
      if (report.backend != index->name()) {
        report.backend = "mixed";
        break;
      }
    }
  }
  report.nodes_visited = stats.nodes_visited;
  report.shards_scanned = stats.shards_scanned;
  report.shards_cached = stats.shards_cached;
  report.shard_local_patterns = stats.local_patterns;
  report.shard_candidates = stats.candidates;
  report.shard_bound_skips = stats.bound_skips;
  report.shard_recounts = stats.recounts;
  report.shard_phase1_nodes.reserve(stats.shard_scans.size());
  for (const ShardScanStat& scan : stats.shard_scans) {
    report.shard_phase1_nodes.push_back(scan.nodes_visited);
  }
  report.index_build_seconds = build_seconds;
  report.mine_seconds = stats.mine_seconds;
  // Delivery mirrors the single-pass emission stream: same order, same
  // max_patterns cut point; a sink's false return stops delivery. A run
  // the cancel token stopped delivers its prefix (empty when the token
  // fired before phase 3) and then reports the stop as a Status.
  for (const MinedPattern& item : mined.items()) {
    if (task.options.cancel != nullptr && task.options.cancel->ShouldStop()) {
      break;
    }
    ++report.patterns_emitted;
    if (!sink.Consume(item.pattern, item.support)) {
      report.truncated = true;
      break;
    }
    if (task.options.max_patterns != 0 &&
        report.patterns_emitted >= task.options.max_patterns) {
      report.truncated = true;
      break;
    }
  }
  SPECMINE_RETURN_NOT_OK(FinishRun(Status::OK(), task.options.cancel));
  return report;
}

// ---------------------------------------------------------------------------
// Rule tasks.

Result<RunReport> Engine::Mine(const RulesTask& task, RuleSink& sink) const {
  SPECMINE_RETURN_NOT_OK(Begin(task));
  double build_seconds = 0.0;
  Result<const HybridIndex*> index =
      EnsureBackend(task.options.backend, &build_seconds);
  if (!index.ok()) return index.status();
  PoolLease lease = LeasePool(task.options.num_threads);
  Stopwatch sw;  // Report the build separately from the mining time.
  RuleMinerStats stats;
  const RuleSet mined =
      task.backward
          ? MineBackwardRules(**index, task.options, &stats, lease.pool())
          : MineRecurrentRules(**index, task.options, &stats, lease.pool());
  RunReport report;
  report.backend = (*index)->name();
  SPECMINE_RETURN_NOT_OK(FinishRun(stats.error, task.options.cancel));
  report.task = task.backward ? "backward-rules" : "rules";
  report.index_build_seconds = build_seconds;
  report.premises_enumerated = stats.premises_enumerated;
  report.candidate_rules = stats.candidate_rules;
  report.truncated = stats.truncated;
  report.mine_seconds = sw.ElapsedSeconds();
  bool stopped = false;
  report.rules_emitted = DeliverRules(mined, sink, &stopped);
  report.truncated = report.truncated || stopped;
  return report;
}

Result<RuleSet> Engine::CollectRules(const RulesTask& task,
                                     RunReport* report) const {
  CollectingRuleSink sink;
  Result<RunReport> run = Mine(task, sink);
  if (!run.ok()) return run.status();
  if (report != nullptr) *report = *run;
  return sink.TakeSet();
}

// ---------------------------------------------------------------------------
// Sequential tasks (plain subsequence semantics over whole sequences).

Result<RunReport> Engine::Mine(const SequentialTask& task,
                               PatternSink& sink) const {
  SPECMINE_RETURN_NOT_OK(Begin(task));
  Stopwatch sw;
  SeqMinerStats stats;
  ScanFrequentSequential(
      Units(), task.options,
      [&sink](const Pattern& pattern, uint64_t support,
              const std::vector<uint32_t>&) {
        return sink.Consume(pattern, support);
      },
      &stats);
  SPECMINE_RETURN_NOT_OK(FinishRun(Status::OK(), task.options.cancel));
  return FromSeqStats("sequential", stats, sw.ElapsedSeconds());
}

Result<RunReport> Engine::Mine(const ClosedSequentialTask& task,
                               PatternSink& sink) const {
  SPECMINE_RETURN_NOT_OK(Begin(task));
  Stopwatch sw;
  SeqMinerStats stats;
  PatternSet mined = MineClosedSequential(Units(), task.options, &stats);
  SPECMINE_RETURN_NOT_OK(FinishRun(Status::OK(), task.options.cancel));
  RunReport report =
      FromSeqStats("closed-sequential", stats, sw.ElapsedSeconds());
  bool stopped = false;
  report.patterns_emitted = DeliverPatterns(mined, sink, &stopped);
  report.truncated = report.truncated || stopped;
  return report;
}

Result<RunReport> Engine::Mine(const SequentialGeneratorsTask& task,
                               PatternSink& sink) const {
  SPECMINE_RETURN_NOT_OK(Begin(task));
  Stopwatch sw;
  SeqMinerStats stats;
  PatternSet mined = MineSequentialGenerators(Units(), task.options, &stats);
  SPECMINE_RETURN_NOT_OK(FinishRun(Status::OK(), task.options.cancel));
  RunReport report =
      FromSeqStats("sequential-generators", stats, sw.ElapsedSeconds());
  bool stopped = false;
  report.patterns_emitted = DeliverPatterns(mined, sink, &stopped);
  report.truncated = report.truncated || stopped;
  return report;
}

// ---------------------------------------------------------------------------
// Related-work baselines.

Result<RunReport> Engine::Mine(const EpisodeTask& task,
                               PatternSink& sink) const {
  SPECMINE_RETURN_NOT_OK(Begin(task));
  const SequenceDatabase& db = database();  // Episode miners scan the arena.
  Stopwatch sw;
  const bool winepi = task.algorithm == EpisodeTask::Algorithm::kWinepi;
  PatternSet mined =
      winepi ? MineWinepi(db, task.winepi) : MineMinepi(db, task.minepi);
  SPECMINE_RETURN_NOT_OK(FinishRun(
      Status::OK(), winepi ? task.winepi.cancel : task.minepi.cancel));
  RunReport report;
  report.task = winepi ? "episodes-winepi" : "episodes-minepi";
  report.mine_seconds = sw.ElapsedSeconds();
  bool stopped = false;
  report.patterns_emitted = DeliverPatterns(mined, sink, &stopped);
  report.truncated = stopped;
  return report;
}

Result<RunReport> Engine::Mine(const TwoEventTask& task,
                               TwoEventSink& sink) const {
  SPECMINE_RETURN_NOT_OK(Begin(task));
  const SequenceDatabase& db = database();  // Scans the arena directly.
  Stopwatch sw;
  std::vector<TwoEventRule> mined = MinePerracotta(db, task.options);
  SPECMINE_RETURN_NOT_OK(FinishRun(Status::OK(), task.options.cancel));
  RunReport report;
  report.task = "two-event";
  report.mine_seconds = sw.ElapsedSeconds();
  for (const TwoEventRule& rule : mined) {
    ++report.rules_emitted;
    if (!sink.Consume(rule)) {
      report.truncated = true;
      break;
    }
  }
  return report;
}

}  // namespace specmine
