// Microbenchmarks of the hot paths shared by every miner: position-index
// construction, QRE instance projection, temporal point computation,
// subsequence embedding, and instance verification.
//
// Results are printed as a table and written to BENCH_core.json (ns/op per
// benchmark) so successive changes have a perf trajectory to compare
// against.

#include <fstream>

#include "bench/bench_util.h"
#include "src/engine/engine.h"
#include "src/engine/phase1_cache.h"
#include "src/itermine/bitmap_index.h"
#include "src/itermine/hybrid_index.h"
#include "src/itermine/projection.h"
#include "src/itermine/qre_verifier.h"
#include "src/rulemine/temporal_points.h"
#include "src/seqmine/occurrence_engine.h"
#include "src/synth/quest_generator.h"
#include "src/trace/append_session.h"

namespace specmine {
namespace {

using bench::DoNotOptimize;
using bench::JsonReport;
using bench::RunMicroBenchmark;

const SequenceDatabase& Db() {
  static SequenceDatabase* db = [] {
    QuestParams p;
    p.d_sequences_thousands = 0.2;
    p.c_avg_sequence_length = 25;
    p.n_events_thousands = 0.3;
    p.s_avg_pattern_length = 6;
    p.num_seed_patterns = 60;
    return new SequenceDatabase(GenerateQuest(p).TakeValueOrDie());
  }();
  return *db;
}

// The most frequent event and a frequent two-event pattern, discovered
// once and reused by the benchmarks below.
EventId HottestEvent() {
  static EventId ev = [] {
    PositionIndex index(Db());
    EventId best = 0;
    for (EventId e = 0; e < Db().dictionary().size(); ++e) {
      if (index.TotalCount(e) > index.TotalCount(best)) best = e;
    }
    return best;
  }();
  return ev;
}

Pattern HotPattern() {
  PositionIndex index(Db());
  Pattern p{HottestEvent()};
  auto ext = ForwardExtensions(index, p, SingleEventInstances(index, p[0]));
  EventId best = kInvalidEvent;
  size_t best_count = 0;
  for (const auto& [ev, instances] : ext) {
    if (instances.size() > best_count) {
      best = ev;
      best_count = instances.size();
    }
  }
  return best == kInvalidEvent ? p : p.Extend(best);
}

int Run() {
  const SequenceDatabase& db = Db();
  PositionIndex index(db);
  const EventId hottest = HottestEvent();
  const Pattern hot = HotPattern();
  const InstanceList hot_instances = FindAllInstances(hot, db);

  std::printf("=== micro_core: shared hot-path benchmarks ===\n");
  JsonReport report("BENCH_core.json");

  RunMicroBenchmark(
      "PositionIndexBuild",
      [&] {
        PositionIndex ix(db);
        DoNotOptimize(ix.num_events());
      },
      &report);

  RunMicroBenchmark(
      "SingleEventInstances",
      [&] { DoNotOptimize(SingleEventInstances(index, hottest).size()); },
      &report);

  const double csr_forward_cold_ns = RunMicroBenchmark(
      "ForwardExtensions",
      [&] {
        DoNotOptimize(ForwardExtensions(index, hot, hot_instances).size());
      },
      &report);

  RunMicroBenchmark(
      "BackwardExtensions",
      [&] {
        DoNotOptimize(BackwardExtensions(index, hot, hot_instances).size());
      },
      &report);

  // The miners' steady state: one workspace reused across every node, so
  // the projection runs allocation-free.
  ProjectionWorkspace ws;
  ForwardExtensionMap forward_out;
  RunMicroBenchmark(
      "ForwardExtensionsReuse",
      [&] {
        ForwardExtensions(index, hot, hot_instances, /*min_count=*/1, &ws,
                          &forward_out);
        DoNotOptimize(forward_out.size());
        ws.forward.Recycle(std::move(forward_out));
      },
      &report);

  RunMicroBenchmark(
      "BackwardExtensionsReuse",
      [&] {
        DoNotOptimize(
            BackwardExtensions(index, hot, hot_instances, /*min_count=*/1, &ws)
                .size());
      },
      &report);

  RunMicroBenchmark(
      "QreFindInstances",
      [&] { DoNotOptimize(FindAllInstances(hot, db).size()); }, &report);

  RunMicroBenchmark(
      "TemporalPoints",
      [&] { DoNotOptimize(ComputeTemporalPoints(hot, db).TotalPoints()); },
      &report);

  RunMicroBenchmark(
      "EarliestEmbedding",
      [&] {
        size_t hits = 0;
        for (EventSpan seq : db) {
          if (EmbedsAt(hot, seq, 0)) ++hits;
        }
        DoNotOptimize(hits);
      },
      &report);

  RunMicroBenchmark(
      "CountOccurrences", [&] { DoNotOptimize(CountOccurrences(hot, db)); },
      &report);

  // --- the vertical bitmap backend (a HybridIndex at kBitmapDenseCutoff)
  // on the same (dense, fig1-style QUEST) corpus. The cold benchmarks
  // construct a fresh workspace per call like their CSR twins above; the
  // chooser line documents what `auto` picks.
  std::printf("--- bitmap backend (auto on this corpus: %s) ---\n",
              BackendKindName(ChooseBackendKind(db)));
  const HybridIndex bitmap_index(db, kBitmapDenseCutoff);
  const CountingBackend bitmap_backend(bitmap_index);

  RunMicroBenchmark(
      "BitmapIndexBuild",
      [&] {
        HybridIndex ix(db, kBitmapDenseCutoff);
        DoNotOptimize(ix.num_events());
      },
      &report);

  const double bitmap_forward_cold_ns = RunMicroBenchmark(
      "BitmapForwardExtensions",
      [&] {
        ProjectionWorkspace cold;
        ForwardExtensionMap out;
        ForwardExtensions(bitmap_backend, hot, hot_instances, /*min_count=*/1,
                          &cold, &out);
        DoNotOptimize(out.size());
      },
      &report);

  ProjectionWorkspace bitmap_ws;
  ForwardExtensionMap bitmap_forward_out;
  RunMicroBenchmark(
      "BitmapForwardExtensionsReuse",
      [&] {
        ForwardExtensions(bitmap_backend, hot, hot_instances, /*min_count=*/1,
                          &bitmap_ws, &bitmap_forward_out);
        DoNotOptimize(bitmap_forward_out.size());
        bitmap_ws.forward.Recycle(std::move(bitmap_forward_out));
      },
      &report);

  RunMicroBenchmark(
      "BitmapBackwardExtensionsReuse",
      [&] {
        DoNotOptimize(
            BackwardExtensions(bitmap_backend, hot, hot_instances,
                               /*min_count=*/1, &bitmap_ws)
                .size());
      },
      &report);

  RunMicroBenchmark(
      "BitmapQreCountInstances",
      [&] { DoNotOptimize(CountInstances(bitmap_backend, hot)); }, &report);

  RunMicroBenchmark(
      "BitmapCountOccurrences",
      [&] { DoNotOptimize(CountOccurrences(bitmap_backend, hot)); },
      &report);

  std::printf(
      "forward cold speedup: %.1fx (csr %.1f us -> bitmap %.1f us)\n",
      csr_forward_cold_ns / bitmap_forward_cold_ns,
      csr_forward_cold_ns / 1e3, bitmap_forward_cold_ns / 1e3);

  // --- the sparse synthetic corpus (huge alphabet, rare events — mean
  // occurrences ~2): the regime where the full bitmap loses the miners'
  // steady state (its events x words table falls out of cache, so every
  // per-event row touch misses). The hybrid format exists for exactly
  // this shape — rare events keep sorted ID-lists, only the dense heads
  // pay for rows — and `auto` must pick it here. All three backends are
  // measured workspace-reusing, the state the miners actually run in.
  std::printf("--- sparse corpus (auto must pick hybrid) ---\n");
  {  // Scoped: the sparse tables (the bitmap's is ~100 MB) must be gone
     // before the peak-RSS probes fork off this process.
  const SequenceDatabase sparse = [] {
    QuestParams p;
    p.d_sequences_thousands = 2.0;   // 2000 sequences.
    p.c_avg_sequence_length = 20;
    p.n_events_thousands = 20.0;     // ~20k distinct events.
    p.s_avg_pattern_length = 4;
    p.num_seed_patterns = 40;
    return GenerateQuest(p).TakeValueOrDie();
  }();
  PositionIndex sparse_csr(sparse);
  const HybridIndex sparse_bitmap(sparse, kBitmapDenseCutoff);
  std::printf(
      "sparse corpus: auto picks %s (mean occurrences %.2f, bitmap table "
      "%.1f MB)\n",
      BackendKindName(ChooseBackendKind(sparse)),
      static_cast<double>(sparse.TotalEvents()) /
          static_cast<double>(sparse.dictionary().size()),
      static_cast<double>(sparse_bitmap.table_bytes()) / 1e6);
  const HybridIndex sparse_hybrid(sparse);
  std::printf(
      "hybrid split: %zu dense events (bitmap rows), %zu sparse "
      "(ID-lists), cutoff %" PRIu64 " occurrences, table %.1f MB "
      "(bitmap would be %.1f MB)\n",
      sparse_hybrid.num_dense_events(),
      sparse_hybrid.num_events() - sparse_hybrid.num_dense_events(),
      sparse_hybrid.dense_cutoff(),
      static_cast<double>(sparse_hybrid.table_bytes()) / 1e6,
      static_cast<double>(sparse_bitmap.table_bytes()) / 1e6);
  // The workload: sparse-tier root expansion — SingleEventInstances plus
  // the first ForwardExtensions for every frequent event below the dense
  // cutoff. This is the unit a low-min-support miner repeats per root on a
  // huge-alphabet corpus, and the regime the formats genuinely diverge in:
  // CSR's root enumeration walks all sequences per event (O(sequences)
  // even for a four-occurrence event), the full bitmap scans a mostly-empty
  // multi-KB row per sequence, and the hybrid reads the event's sorted
  // ID-list directly.
  constexpr uint64_t kSparseMinSupport = 4;
  std::vector<EventId> sparse_roots;
  for (EventId ev = 0; ev < sparse.dictionary().size(); ++ev) {
    const uint64_t count = sparse_hybrid.TotalCount(ev);
    if (count >= kSparseMinSupport && count < sparse_hybrid.dense_cutoff()) {
      sparse_roots.push_back(ev);
    }
  }
  std::printf("sparse-tier roots at min_support %" PRIu64 ": %zu events\n",
              kSparseMinSupport, sparse_roots.size());
  auto expand_sparse_roots = [&](const CountingBackend& backend,
                                 ProjectionWorkspace* ws,
                                 ForwardExtensionMap* out) {
    size_t buckets = 0;
    for (EventId ev : sparse_roots) {
      const InstanceList instances = SingleEventInstances(backend, ev);
      ForwardExtensions(backend, Pattern{ev}, instances, /*min_count=*/1, ws,
                        out);
      buckets += out->size();
      ws->forward.Recycle(std::move(*out));
    }
    return buckets;
  };
  const CountingBackend sparse_csr_backend(sparse_csr);
  ProjectionWorkspace sparse_ws;
  ForwardExtensionMap sparse_out;
  const double sparse_csr_ns = RunMicroBenchmark(
      "SparseForwardExtensionsCsr",
      [&] {
        DoNotOptimize(
            expand_sparse_roots(sparse_csr_backend, &sparse_ws, &sparse_out));
      },
      &report, /*budget_seconds=*/1.0);
  const CountingBackend sparse_bitmap_backend(sparse_bitmap);
  ProjectionWorkspace sparse_bitmap_ws;
  const double sparse_bitmap_ns = RunMicroBenchmark(
      "SparseForwardExtensionsBitmap",
      [&] {
        DoNotOptimize(expand_sparse_roots(sparse_bitmap_backend,
                                          &sparse_bitmap_ws, &sparse_out));
      },
      &report, /*budget_seconds=*/1.0);
  const CountingBackend sparse_hybrid_backend(sparse_hybrid);
  ProjectionWorkspace sparse_hybrid_ws;
  const double sparse_hybrid_ns = RunMicroBenchmark(
      "HybridSparseForwardExtensions",
      [&] {
        DoNotOptimize(expand_sparse_roots(sparse_hybrid_backend,
                                          &sparse_hybrid_ws, &sparse_out));
      },
      &report, /*budget_seconds=*/1.0);
  std::printf(
      "sparse root expansion: hybrid %.1f us vs csr %.1f us (%.2fx) vs "
      "bitmap %.1f us (%.2fx)\n",
      sparse_hybrid_ns / 1e3, sparse_csr_ns / 1e3,
      sparse_csr_ns / sparse_hybrid_ns, sparse_bitmap_ns / 1e3,
      sparse_bitmap_ns / sparse_hybrid_ns);
  }  // End of the sparse-corpus scope.

  // db_load: text parse vs .smdb mmap, on the fig1 corpus (the dataset the
  // figure benchmarks mine). The packed open only materializes the
  // dictionary and validates offsets; the arena is mapped, not parsed.
  std::printf("--- db_load (fig1 corpus) ---\n");
  const SequenceDatabase fig1 = bench::MakeBenchDatabase();
  const bench::LoadBenchFiles files =
      bench::WriteLoadBenchFiles(fig1, "bench_db_load");
  const double text_ns = RunMicroBenchmark(
      "DbLoadTextParse",
      [&] {
        Result<SequenceDatabase> loaded = ReadTextTraceFile(files.text_path);
        DoNotOptimize(loaded->TotalEvents());
      },
      &report);
  const double smdb_ns = RunMicroBenchmark(
      "DbLoadSmdbMmap",
      [&] {
        Result<MappedDatabase> mapped = MappedDatabase::Open(files.smdb_path);
        DoNotOptimize(mapped->db().TotalEvents());
      },
      &report);
  std::printf("db_load speedup: %.1fx (text %.1f us -> smdb %.1f us)\n",
              text_ns / smdb_ns, text_ns / 1e3, smdb_ns / 1e3);

  // db_shard: the same full-pattern mining task, end to end (open +
  // index + mine), over the modular scaled-fig1 corpus — as one .smdb
  // (single-file pass) versus as a per-module .smdbset on the sharded
  // execution path. Sharding wins twice: the per-shard position indexes
  // are events_i x sequences_i instead of one events x sequences table
  // (a ~modules-fold smaller working set for disjoint module alphabets),
  // and the shards mine concurrently on the pool on multi-core hosts.
  std::printf("--- db_shard (modular fig1 corpus) ---\n");
  constexpr size_t kModules = 8;
  std::vector<size_t> module_starts;
  const SequenceDatabase modular =
      bench::MakeModularBenchDatabase(kModules, &module_starts);
  const bench::ShardBenchFiles shard_files =
      bench::WriteShardBenchFiles(modular, module_starts, "bench_db_shard");
  FullPatternsTask shard_task;
  shard_task.options.min_support = 60;
  // Cache off: this row's trajectory is the raw two-phase scan; the
  // db_remine rows below carry the phase-1 cache story.
  shard_task.phase1_cache = false;
  size_t single_patterns = 0, sharded_patterns = 0;
  const double single_ns = RunMicroBenchmark(
      "DbShardSingleFile",
      [&] {
        Result<Engine> engine =
            Engine::FromBinaryFile(shard_files.smdb_path);
        Result<PatternSet> mined = engine->CollectPatterns(shard_task);
        single_patterns = mined->size();
        DoNotOptimize(single_patterns);
      },
      &report, 1.0);
  const double sharded_ns = RunMicroBenchmark(
      "DbShardParallel",
      [&] {
        Result<Engine> engine =
            Engine::FromShardSet(shard_files.smdbset_path);
        CollectingPatternSink sink;
        Result<RunReport> run = engine->MineSharded(shard_task, sink);
        sharded_patterns = sink.set().size();
        DoNotOptimize(run->patterns_emitted);
      },
      &report, 1.0);
  std::printf(
      "db_shard speedup: %.1fx (single %.1f ms -> sharded %.1f ms), "
      "%zu == %zu patterns\n",
      single_ns / sharded_ns, single_ns / 1e6, sharded_ns / 1e6,
      single_patterns, sharded_patterns);
  if (single_patterns != sharded_patterns) {
    std::fprintf(stderr,
                 "db_shard: sharded mining diverged from single-file!\n");
    return 1;
  }

  // db_remine: re-mining after a log-structured append of a fresh module
  // (a new component coming online — the modular corpus's natural growth
  // step). The warm path replays the eight untouched module shards from
  // the on-disk phase-1 candidate cache — their prune margins reference
  // only their own modules' events, which the disjoint tail never touches
  // — and scans only the appended tail shard; the cold path
  // (phase1_cache = false) re-scans everything. Both mine the same
  // appended set, so the pattern sets must agree exactly.
  std::printf("--- db_remine (append one module, warm phase-1 cache) ---\n");
  const bench::ShardBenchFiles remine_files =
      bench::WriteShardBenchFiles(modular, module_starts, "bench_db_remine");
  // A lower threshold than db_shard's: phase-1 scan cost grows steeply as
  // the support falls, which is exactly the work the cache saves — the
  // fixed per-run costs (index builds, digests, phase 2) are shared by
  // both paths and would otherwise mask the scan savings.
  FullPatternsTask remine_task;
  remine_task.options.min_support = 40;
  // The modular generator is deterministic, so a previous bench run's
  // cache would be a valid warm start — delete it for a reproducible
  // cold baseline (stale other-threshold entries would also bloat every
  // save below).
  std::remove(Phase1CachePath(remine_files.smdbset_path).c_str());
  {
    // Warm the cache over the base shards only...
    Result<Engine> engine = Engine::FromShardSet(remine_files.smdbset_path);
    CollectingPatternSink sink;
    Result<RunReport> run = engine->MineSharded(remine_task, sink);
    if (!run.ok()) {
      std::fprintf(stderr, "db_remine warm-up failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
  }
  const std::string remine_cache =
      Phase1CachePath(remine_files.smdbset_path);
  std::vector<char> base_cache;
  {
    std::ifstream in(remine_cache, std::ios::binary);
    base_cache.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  }
  {
    // ...then append one module's worth of traces as a tail shard.
    Result<AppendSession> opened =
        AppendSession::Open(remine_files.smdbset_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "db_remine append open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    AppendSession session = opened.TakeValueOrDie();
    QuestParams params = bench::BenchQuestParams();
    params.seed += kModules;  // The next module in the generator series.
    Result<SequenceDatabase> tail_db = GenerateQuest(params);
    if (!tail_db.ok()) {
      std::fprintf(stderr, "db_remine tail generation failed: %s\n",
                   tail_db.status().ToString().c_str());
      return 1;
    }
    const std::string prefix = "m" + std::to_string(kModules) + ".";
    Status appended = Status::OK();
    std::vector<std::string> names;
    for (EventSpan seq : *tail_db) {
      names.clear();
      names.reserve(seq.size());
      for (EventId ev : seq) {
        names.push_back(prefix + tail_db->dictionary().Name(ev));
      }
      appended = session.AddTrace(names);
      if (!appended.ok()) break;
    }
    if (appended.ok()) appended = session.Commit();
    if (!appended.ok()) {
      std::fprintf(stderr, "db_remine append failed: %s\n",
                   appended.ToString().c_str());
      return 1;
    }
  }
  // The engines are opened once and reused across iterations — the shape
  // of a long-lived specmined session re-mining after an append (the
  // registry swaps in an open engine; index builds and shard digests are
  // paid once per generation, not per mine).
  Result<Engine> remine_engine =
      Engine::FromShardSet(remine_files.smdbset_path);
  if (!remine_engine.ok()) {
    std::fprintf(stderr, "db_remine reopen failed: %s\n",
                 remine_engine.status().ToString().c_str());
    return 1;
  }
  size_t incremental_patterns = 0, cold_patterns = 0;
  const double incremental_ns = RunMicroBenchmark(
      "IncrementalRemine",
      [&] {
        // Restore the pre-append cache so every iteration replays the
        // base shards and scans exactly the appended tail.
        std::ofstream(remine_cache, std::ios::binary | std::ios::trunc)
            .write(base_cache.data(),
                   static_cast<std::streamsize>(base_cache.size()));
        CollectingPatternSink sink;
        Result<RunReport> run = remine_engine->MineSharded(remine_task, sink);
        incremental_patterns = sink.set().size();
        DoNotOptimize(run->patterns_emitted);
      },
      &report, 1.0);
  FullPatternsTask cold_task = remine_task;
  cold_task.phase1_cache = false;
  const double cold_ns = RunMicroBenchmark(
      "ColdRemine",
      [&] {
        CollectingPatternSink sink;
        Result<RunReport> run = remine_engine->MineSharded(cold_task, sink);
        cold_patterns = sink.set().size();
        DoNotOptimize(run->patterns_emitted);
      },
      &report, 1.0);
  std::printf(
      "db_remine speedup: %.1fx (cold %.1f ms -> incremental %.1f ms), "
      "%zu == %zu patterns\n",
      cold_ns / incremental_ns, cold_ns / 1e6, incremental_ns / 1e6,
      cold_patterns, incremental_patterns);
  if (incremental_patterns != cold_patterns) {
    std::fprintf(stderr,
                 "db_remine: cached mining diverged from the cold scan!\n");
    return 1;
  }
  {
    // Tripwire: the incremental path must actually replay the eight base
    // shards, not silently rescan them.
    std::ofstream(remine_cache, std::ios::binary | std::ios::trunc)
        .write(base_cache.data(),
               static_cast<std::streamsize>(base_cache.size()));
    Result<Engine> engine = Engine::FromShardSet(remine_files.smdbset_path);
    CollectingPatternSink sink;
    Result<RunReport> run = engine->MineSharded(remine_task, sink);
    if (!run.ok() || run->shards_cached != kModules ||
        run->shards_scanned != 1) {
      std::fprintf(stderr,
                   "db_remine: expected %zu cached + 1 scanned shards, got "
                   "%zu cached + %zu scanned\n",
                   kModules, run.ok() ? run->shards_cached : size_t{0},
                   run.ok() ? run->shards_scanned : size_t{0});
      return 1;
    }
  }

  return report.Write() ? 0 : 1;
}

}  // namespace
}  // namespace specmine

int main() { return specmine::Run(); }
