#include "src/itermine/full_miner.h"

#include <memory>

#include "src/itermine/projection.h"
#include "src/support/cancel.h"
#include "src/support/stopwatch.h"
#include "src/support/thread_pool.h"

namespace specmine {

namespace {

struct Ctx {
  const CountingBackend* backend;
  const IterMinerOptions* options;
  const std::function<bool(const Pattern&, uint64_t)>* sink;
  IterMinerStats* stats;
  ProjectionWorkspace* ws;
  bool stop = false;
};

void Grow(Ctx* ctx, const Pattern& pattern, const InstanceList& instances) {
  if (ctx->stop) return;
  const CancelToken* cancel = ctx->options->cancel;
  if (cancel != nullptr && cancel->ShouldStop()) {
    ctx->stats->stopped = cancel->stop_code();
    ctx->stop = true;
    return;
  }
  ++ctx->stats->nodes_visited;
  ++ctx->stats->patterns_emitted;
  bool grow_subtree = (*ctx->sink)(pattern, instances.size());
  if (ctx->options->max_patterns != 0 &&
      ctx->stats->patterns_emitted >= ctx->options->max_patterns) {
    ctx->stats->truncated = true;
    ctx->stop = true;
    return;
  }
  if (!grow_subtree) return;
  if (ctx->options->max_length != 0 &&
      pattern.size() >= ctx->options->max_length) {
    return;
  }
  ForwardExtensionMap extensions = ctx->ws->forward.AcquireMap();
  ForwardExtensions(*ctx->backend, pattern, instances, ctx->ws, &extensions);
  for (auto& [ev, ext_instances] : extensions) {
    if (ctx->stop) break;
    if (ext_instances.size() < ctx->options->min_support) continue;
    Grow(ctx, pattern.Extend(ev), ext_instances);
  }
  ctx->ws->forward.ReleaseMap(std::move(extensions));
}

// --------------------------------------------------------------------------
// Parallel path: one job per frequent root event. Workers mine whole
// subtrees into private buffers; the sink then replays the buffers on the
// calling thread in root order, reproducing the sequential emission
// sequence exactly (including sink-driven subtree skips and max_patterns
// truncation), so user callbacks need no synchronization and the output
// is identical at every thread count.

struct Emission {
  Pattern pattern;
  uint64_t support;
};

struct SubtreeJob {
  const CountingBackend* backend;
  const IterMinerOptions* options;
  ProjectionWorkspace ws;
  std::vector<Emission> emitted;  // DFS preorder.
  size_t nodes_visited = 0;
  bool cancelled = false;  // Buffer is a prefix of this subtree's preorder.

  void Grow(const Pattern& pattern, const InstanceList& instances) {
    if (cancelled) return;
    if (options->cancel != nullptr && options->cancel->ShouldStop()) {
      // The buffered emissions so far are a prefix of this subtree's DFS
      // preorder; the replay loop stops the global sequence here, keeping
      // the whole delivered output a prefix of the deterministic order.
      cancelled = true;
      return;
    }
    // No single job can contribute more emissions than the global cap, so
    // stop buffering there — this bounds memory exactly like sequential
    // truncation does for the non-pruning sinks that use max_patterns.
    if (options->max_patterns != 0 &&
        emitted.size() >= options->max_patterns) {
      return;
    }
    ++nodes_visited;
    emitted.push_back(Emission{pattern, instances.size()});
    if (options->max_length != 0 && pattern.size() >= options->max_length) {
      return;
    }
    ForwardExtensionMap extensions = ws.forward.AcquireMap();
    ForwardExtensions(*backend, pattern, instances, &ws, &extensions);
    for (auto& [ev, ext_instances] : extensions) {
      if (cancelled) break;
      if (ext_instances.size() < options->min_support) continue;
      Grow(pattern.Extend(ev), ext_instances);
    }
    ws.forward.ReleaseMap(std::move(extensions));
  }
};

void ScanParallel(const CountingBackend& backend,
                  const IterMinerOptions& options, size_t num_threads,
                  ThreadPool* pool,
                  const std::function<bool(const Pattern&, uint64_t)>& sink,
                  IterMinerStats* stats) {
  const std::vector<EventId> roots =
      FrequentRoots(backend, options.min_support);
  std::vector<std::unique_ptr<SubtreeJob>> jobs(roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    jobs[i] = std::make_unique<SubtreeJob>();
    jobs[i]->backend = &backend;
    jobs[i]->options = &options;
  }
  stats->error = ThreadPool::ParallelForShared(
      pool, num_threads, roots.size(), [&](size_t i) {
        jobs[i]->Grow(Pattern{roots[i]},
                      SingleEventInstances(backend, roots[i]));
      });
  if (!stats->error.ok()) return;  // A worker task threw: deliver nothing.
  // Replay: a sink returning false skips every deeper emission that
  // follows (its subtree — preorder depth equals pattern length). Each
  // job's buffer is freed as soon as it is replayed, so peak memory is
  // the not-yet-replayed buffers, not the whole run's emissions.
  size_t skip_below = 0;  // 0 = not skipping.
  for (auto& job : jobs) {
    stats->nodes_visited += job->nodes_visited;
    for (const Emission& e : job->emitted) {
      // A fired token ends the delivered sequence here — everything
      // already replayed (complete earlier jobs + this job's prefix) is a
      // prefix of the deterministic global order.
      if (options.cancel != nullptr && options.cancel->ShouldStop()) {
        stats->stopped = options.cancel->stop_code();
        return;
      }
      if (skip_below != 0) {
        if (e.pattern.size() > skip_below) continue;
        skip_below = 0;
      }
      ++stats->patterns_emitted;
      bool grow_subtree = sink(e.pattern, e.support);
      if (options.max_patterns != 0 &&
          stats->patterns_emitted >= options.max_patterns) {
        stats->truncated = true;
        return;
      }
      if (!grow_subtree) skip_below = e.pattern.size();
    }
    const bool job_cancelled = job->cancelled;
    job.reset();
    if (job_cancelled) {
      stats->stopped = options.cancel != nullptr
                           ? options.cancel->stop_code()
                           : StatusCode::kCancelled;
      return;
    }
  }
}

}  // namespace

void ScanFrequentIterative(
    const CountingBackend& backend, const IterMinerOptions& options,
    const std::function<bool(const Pattern&, uint64_t)>& sink,
    IterMinerStats* stats, ThreadPool* pool) {
  IterMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = IterMinerStats{};
  Stopwatch sw;
  const size_t num_threads = ThreadPool::ResolveThreads(options.num_threads);
  if (num_threads > 1) {
    ScanParallel(backend, options, num_threads, pool, sink, stats);
    stats->mine_seconds = sw.ElapsedSeconds();
    return;
  }
  ProjectionWorkspace ws;
  Ctx ctx{&backend, &options, &sink, stats, &ws};
  for (EventId ev = 0; ev < backend.num_events(); ++ev) {
    if (ctx.stop) break;
    if (backend.TotalCount(ev) < options.min_support) continue;
    Pattern p{ev};
    Grow(&ctx, p, SingleEventInstances(backend, ev));
  }
  stats->mine_seconds = sw.ElapsedSeconds();
}

}  // namespace specmine
