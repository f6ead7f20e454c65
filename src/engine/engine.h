// specmine::Engine — the unified session API over every miner in the
// library (the LogBase-style server seam: one long-lived handle per
// immutable trace database).
//
// An Engine owns a SequenceDatabase and lazily builds — then caches — the
// counting index (a HybridIndex per layout) and a shared worker pool, so a
// session running many tasks (a multi-scenario request stream) pays for
// index construction and thread spawns once instead of per call. Every
// miner is exposed as a uniform task object:
//
//     Result<Engine> engine = Engine::FromTextTraceFile("traces.txt");
//     if (!engine.ok()) return engine.status();
//     CollectingPatternSink patterns;
//     Result<RunReport> report =
//         engine->Mine(ClosedTask{{.min_support = 10}}, patterns);
//
// Failures are values: invalid options, an empty database, and
// uint32-offset overflow all return Status instead of aborting or mining
// garbage. Emission order and content are byte-identical to each miner's
// single entry point run over the same index.
//
// Thread-safety: Mine is safe to call concurrently from multiple threads
// on one Engine (the specmined server shares one session per corpus
// across its connection threads). The lazily built caches — the counting
// index per layout, per-shard indexes, unit view — are constructed under
// a mutex, so N requests racing into a cold corpus pay for exactly one
// build (index_builds() == 1; the concurrent hammer test pins this down),
// and every cache is immutable once published. Worker pools are handed
// out as exclusive leases: concurrent multi-threaded tasks each get their
// own pool (idle pools are cached and reused), because a ThreadPool
// fan-out requires the pool to itself be otherwise idle.

#ifndef SPECMINE_ENGINE_ENGINE_H_
#define SPECMINE_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/run_report.h"
#include "src/engine/sinks.h"
#include "src/engine/tasks.h"
#include "src/itermine/hybrid_index.h"
#include "src/seqmine/prefixspan.h"
#include "src/support/status.h"
#include "src/support/thread_pool.h"
#include "src/trace/binary_format.h"
#include "src/trace/csv_trace_reader.h"
#include "src/trace/sequence_database.h"
#include "src/trace/shard_set.h"

namespace specmine {

/// \brief A mining session over one immutable trace database.
class Engine {
 public:
  /// \brief Wraps \p db. Prefer the checked factories below: they reject
  /// databases the index layout cannot address up front; with this
  /// constructor the same check happens (as an error) on first Mine.
  explicit Engine(SequenceDatabase db)
      : db_(std::make_unique<SequenceDatabase>(std::move(db))) {}

  /// \brief Checked wrap: verifies the index's uint32 offset layout can
  /// address \p db.
  static Result<Engine> Create(SequenceDatabase db);

  /// \brief Loads plain-text traces from \p path into a new session.
  static Result<Engine> FromTextTraceFile(const std::string& path);

  /// \brief Loads CSV instrumentation traces from \p path.
  static Result<Engine> FromCsvTraceFile(const std::string& path,
                                         const CsvTraceOptions& options);

  /// \brief Opens a packed .smdb database (see binary_format.h) as a
  /// zero-copy mmap session: the event arena is range-checked with one
  /// sequential read but never copied, so resident memory stays
  /// O(dictionary) and databases larger than RAM page in on demand.
  static Result<Engine> FromBinaryFile(const std::string& path);

  /// \brief Same, with an explicit integrity mode (header-only by
  /// default; IntegrityMode::kFull re-hashes every section against the
  /// stored checksums before the session is handed out).
  static Result<Engine> FromBinaryFile(const std::string& path,
                                       const SmdbOpenOptions& options);

  /// \brief Opens a sharded corpus from its .smdbset manifest (see
  /// shard_set.h): every shard is mmap'ed and validated, and the shard
  /// structure is kept for MineSharded. The merged (remapped,
  /// concatenated) arena is materialized once, on first use by a task
  /// that needs it; from then on the session behaves like one over the
  /// equivalent single .smdb — the backend is resolved over that arena
  /// (ChooseBackendKind under auto) and its one index is cached.
  /// Contract table:
  ///
  ///   task / accessor              | merged arena materialized?
  ///   -----------------------------|--------------------------------------
  ///   MineSharded                  | never — per-shard execution
  ///   dictionary(), counts         | never — manifest metadata
  ///   Mine (any backend, any task),| yes, once, on first use; one index
  ///     database(), SaveBinary     | per representation over it
  ///
  /// Every task mines byte-identically to the equivalent single .smdb —
  /// the sharded arms of tests/backend_equivalence_test.cc and
  /// tests/shard_engine_test.cc pin this, quarantined sets included.
  static Result<Engine> FromShardSet(const std::string& path);

  /// \brief Same, with an explicit integrity mode and shard failure
  /// policy. Under ShardFailurePolicy::kQuarantine a shard that fails to
  /// open or validate is recorded (shard_set().open_report()) and the
  /// session mines the healthy subset: the merged database holds only
  /// healthy shards, so fractional support thresholds rescale to the
  /// surviving trace count automatically; every MineSharded report carries
  /// shards_total / shards_quarantined / shard_errors.
  static Result<Engine> FromShardSet(const std::string& path,
                                     const SetOpenOptions& options);

  /// \brief Writes the session's database as a .smdb file at \p path
  /// (materializes the merged arena on a sharded session).
  Status SaveBinary(const std::string& path) const {
    return WriteBinaryDatabaseFile(database(), path);
  }

  /// \brief True iff this session mines straight out of an mmap'ed .smdb
  /// file (FromBinaryFile) rather than an in-memory arena.
  bool memory_mapped() const { return mapping_ != nullptr; }

  /// \brief True iff this session was opened from a .smdbset manifest
  /// (FromShardSet) and so also carries the per-shard structure.
  bool sharded() const { return shard_set_ != nullptr; }

  /// \brief The open shard set; only valid when sharded().
  const ShardedDatabase& shard_set() const { return *shard_set_; }

  /// \brief The wrapped database (immutable once published). On a
  /// sharded session this materializes the merged arena on first call —
  /// prefer dictionary() / num_sequences() / total_events() when the
  /// metadata is all that is needed.
  const SequenceDatabase& database() const;

  /// \brief The session's event dictionary, without materializing the
  /// merged arena (the shard manifest already carries the merged
  /// dictionary).
  const EventDictionary& dictionary() const {
    return shard_set_ != nullptr ? shard_set_->dictionary()
                                 : db_->dictionary();
  }

  /// \brief Number of sequences, without materializing the merged arena.
  size_t num_sequences() const {
    return shard_set_ != nullptr ? shard_set_->TotalSequences() : db_->size();
  }

  /// \brief Total events, without materializing the merged arena.
  size_t total_events() const {
    return shard_set_ != nullptr ? shard_set_->TotalEvents()
                                 : db_->TotalEvents();
  }

  /// \brief Converts a fraction-of-sequences threshold to an absolute one
  /// (at least 1) — the paper reports thresholds as fractions.
  uint64_t AbsoluteSupport(double fraction) const;

  // -------------------------------------------------------------------------
  // Tasks. Each validates its options, runs the miner against the cached
  // index / shared pool, streams results into the sink in the miner's
  // emission order, and returns the unified RunReport.
  // report.index_build_seconds is non-zero only for the call that actually
  // built the session's index.

  Result<RunReport> Mine(const FullPatternsTask& task,
                         PatternSink& sink) const;
  Result<RunReport> Mine(const ClosedTask& task, PatternSink& sink) const;
  Result<RunReport> Mine(const GeneratorsTask& task, PatternSink& sink) const;
  Result<RunReport> Mine(const RulesTask& task, RuleSink& sink) const;
  Result<RunReport> Mine(const SequentialTask& task, PatternSink& sink) const;
  Result<RunReport> Mine(const ClosedSequentialTask& task,
                         PatternSink& sink) const;
  Result<RunReport> Mine(const SequentialGeneratorsTask& task,
                         PatternSink& sink) const;
  Result<RunReport> Mine(const EpisodeTask& task, PatternSink& sink) const;
  Result<RunReport> Mine(const TwoEventTask& task, TwoEventSink& sink) const;

  /// \brief The sharded execution path (sessions opened with FromShardSet
  /// only): mines the full-pattern task shard by shard, in parallel on
  /// the session's pool, with the two-phase partition scheme of
  /// shard_exec.h. Output — content, supports, and order — is
  /// byte-identical to Mine(task, sink) on the merged database for any
  /// non-pruning sink; a sink returning false stops delivery here (like
  /// the materialized tasks) instead of pruning a subtree, and
  /// max_patterns cuts delivery at the same pattern the single-pass scan
  /// would have stopped at. Per-shard indexes are built on first use and
  /// cached for the session, mirroring backend().
  Result<RunReport> MineSharded(const FullPatternsTask& task,
                                PatternSink& sink) const;

  // -------------------------------------------------------------------------
  // Collecting conveniences: run the task with a collecting sink and
  // return the materialized set (unsorted, i.e. miner emission order).

  template <typename Task>
  Result<PatternSet> CollectPatterns(const Task& task,
                                     RunReport* report = nullptr) const {
    CollectingPatternSink sink;
    Result<RunReport> run = Mine(task, sink);
    if (!run.ok()) return run.status();
    if (report != nullptr) *report = *run;
    return sink.TakeSet();
  }

  Result<RuleSet> CollectRules(const RulesTask& task,
                               RunReport* report = nullptr) const;

  // -------------------------------------------------------------------------
  // Cached infrastructure (exposed for advanced callers and tests).

  /// \brief The session's counting index for \p choice, building it on
  /// first use (kAuto resolves via ChooseBackendKind, over the
  /// materialized merged arena on a sharded session). The two layouts
  /// cache independently, so a session mixing explicit bitmap and hybrid
  /// tasks builds each at most once. This accessor aborts if the build
  /// fails — which for kAuto and kHybrid the checked factories make
  /// unreachable, but an explicit kBitmap request beyond the 1 GB table
  /// cap (CheckBitmapIndexable) does fail; for untrusted sizes run a Mine
  /// task instead, which reports the same condition as an OutOfRange
  /// Status.
  const HybridIndex& backend(BackendChoice choice = BackendChoice::kAuto) const;

  /// \brief How many index builds (bitmap or hybrid layout) this session
  /// has paid for — at most one per layout, *including*
  /// under concurrent Mine calls racing into a cold session; a
  /// single-backend session stays at 1 however many tasks it runs (the
  /// cache assertion the tests pin down).
  size_t index_builds() const {
    return sync_->index_builds.load(std::memory_order_acquire);
  }

 private:
  // An exclusive lease on a worker pool for one task run. pool() is null
  // when the resolved thread count is 1 (sequential). The destructor
  // returns the pool to the session's idle cache so a sequential request
  // stream still amortizes thread spawns across tasks.
  class PoolLease {
   public:
    PoolLease(PoolLease&&) noexcept = default;
    PoolLease& operator=(PoolLease&&) = delete;
    ~PoolLease();

    ThreadPool* pool() const { return pool_.get(); }

   private:
    friend class Engine;
    PoolLease(const Engine* session, std::unique_ptr<ThreadPool> pool)
        : session_(session), pool_(std::move(pool)) {}

    const Engine* session_;
    std::unique_ptr<ThreadPool> pool_;
  };
  // Sharded sessions only: the private default state (db_ null until a
  // task needs the materialized merged arena).
  Engine() = default;

  // Materializes the merged arena from the shard set if not yet present.
  // Requires cache_mu held. No-op for non-sharded sessions (db_ is always
  // set) and for already-materialized ones. Infallible: FromShardSet
  // validated the merged-view bounds up front.
  void MaterializeLocked() const;

  // Resolves \p choice and returns the cached index of that layout,
  // building it on first use; *build_seconds receives the construction
  // time if this call built it, else 0. Thread-safe: concurrent cold
  // callers serialize on cache_mu and all but one observe a cache hit.
  Result<const HybridIndex*> EnsureBackend(BackendChoice choice,
                                           double* build_seconds) const;

  // Leases a pool sized for \p requested_threads (options-style: 0 =
  // hardware concurrency); lease.pool() is nullptr when the resolved
  // count is 1 (sequential). Matching idle pools are reused; concurrent
  // tasks never share a live pool.
  PoolLease LeasePool(size_t requested_threads) const;

  // Returns a leased pool to the idle cache (called by ~PoolLease).
  void ReturnPool(std::unique_ptr<ThreadPool> pool) const;

  // The cached whole-sequence unit view the sequential miners run over,
  // built on first use (one Unit per sequence — O(sequences), cached so a
  // request stream doesn't re-materialize it per call).
  const UnitDatabase& Units() const;

  // Common preamble: task options valid, database non-empty.
  template <typename Task>
  Status Begin(const Task& task) const;

  // The memoized per-shard content digests (the phase-1 cache keys),
  // computed once per session under cache_mu. Sharded sessions only.
  const std::vector<uint64_t>& ShardDigests() const;

  // Fills *indexes with one counting index per shard (layouts resolved
  // per shard — the chooser runs on each shard's own shape), building any
  // missing one — one job per shard on \p pool when \p num_threads
  // allows; *build_seconds receives the wall-clock construction time if
  // this call built anything, else 0.
  Status EnsureShardBackends(BackendChoice choice,
                             std::vector<const HybridIndex*>* indexes,
                             double* build_seconds, ThreadPool* pool,
                             size_t num_threads) const;

  // unique_ptr keeps the database (and so the index's back-pointer)
  // address-stable across Engine moves. For FromBinaryFile sessions db_ is
  // a view into mapping_, which must therefore outlive it; for
  // FromShardSet sessions shard_set_ owns the per-shard mappings and db_
  // is the materialized merged database.
  std::unique_ptr<MappedDatabase> mapping_;
  std::unique_ptr<ShardedDatabase> shard_set_;
  // mutable: sharded sessions publish the merged arena on first use by a
  // task that needs it (MaterializeLocked, under cache_mu).
  mutable std::unique_ptr<SequenceDatabase> db_;
  // The mutexes and the build counter live behind one heap allocation
  // because an Engine must stay movable (the factories return by value);
  // mutexes and atomics are not. cache_mu guards every lazy cache build
  // (the indexes, the per-shard index vectors, units_);
  // once a cache is published it is immutable and read without the lock.
  // pool_mu guards the idle pool cache.
  struct Sync {
    std::mutex cache_mu;
    std::mutex pool_mu;
    std::atomic<size_t> index_builds{0};
  };
  mutable std::unique_ptr<Sync> sync_ = std::make_unique<Sync>();
  // The counting index per layout: "bitmap" is the HybridIndex at
  // kBitmapDenseCutoff, "hybrid" the one at its tuned cutoff; each caches
  // independently.
  mutable std::unique_ptr<HybridIndex> bitmap_index_;
  mutable std::unique_ptr<HybridIndex> hybrid_index_;
  // Per-shard indexes (MineSharded only); a slot is filled lazily when a
  // sharded task resolves that shard to the corresponding layout.
  mutable std::vector<std::unique_ptr<HybridIndex>> shard_bitmap_indexes_;
  mutable std::vector<std::unique_ptr<HybridIndex>> shard_hybrid_indexes_;
  mutable std::unique_ptr<UnitDatabase> units_;
  // Memoized per-shard content digests (built under cache_mu on the first
  // cache-enabled MineSharded; the shard files are immutable for the
  // session's lifetime).
  mutable std::vector<uint64_t> shard_digests_;
  // Idle worker pools awaiting a LeasePool checkout (any mix of widths).
  mutable std::vector<std::unique_ptr<ThreadPool>> idle_pools_;
};

}  // namespace specmine

#endif  // SPECMINE_ENGINE_ENGINE_H_
