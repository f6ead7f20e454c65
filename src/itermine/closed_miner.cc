#include "src/itermine/closed_miner.h"

#include <memory>

#include "src/itermine/projection.h"
#include "src/support/cancel.h"
#include "src/support/stopwatch.h"
#include "src/support/thread_pool.h"

namespace specmine {

namespace {

struct Ctx {
  const CountingBackend* backend;
  const ClosedIterMinerOptions* options;
  PatternSet* out;
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
  const uint64_t support = instances.size();

  // Backward extensions first: they both decide backward absorption and
  // drive the subtree prunes, letting us skip the (costlier) forward
  // projection for pruned subtrees. The result buffer lives in the
  // workspace and is fully consumed before any recursive call.
  const BackwardExtensionMap& backward =
      BackwardExtensions(*ctx->backend, pattern, instances, ctx->ws);
  bool backward_absorbed = false;
  for (const auto& [ev, ext] : backward) {
    if (ext.support != support) continue;
    backward_absorbed = true;
    if (!ext.all_adjacent) continue;
    const bool in_alphabet = pattern.Contains(ev);
    if ((in_alphabet && ctx->options->prefix_prune) ||
        (!in_alphabet && ctx->options->aggressive_prefix_prune)) {
      ++ctx->stats->subtrees_pruned;
      return;  // No closed pattern anywhere in this subtree.
    }
  }

  ForwardExtensionMap forward = ctx->ws->forward.AcquireMap();
  ForwardExtensions(*ctx->backend, pattern, instances, ctx->ws, &forward);
  bool forward_absorbed = false;
  for (const auto& [ev, ext_instances] : forward) {
    if (ext_instances.size() == support) {
      forward_absorbed = true;
      break;
    }
  }

  bool infix_absorbed = false;
  if (pattern.size() >= 2 &&
      (ctx->options->infix_prune ||
       (ctx->options->infix_check && !backward_absorbed &&
        !forward_absorbed))) {
    infix_absorbed = HasUniformInfixAbsorber(ctx->backend->db(), pattern,
                                             instances, ctx->ws);
    if (infix_absorbed && ctx->options->infix_prune) {
      ++ctx->stats->subtrees_pruned;
      ctx->ws->forward.ReleaseMap(std::move(forward));
      return;  // P3: the subtree contains no closed pattern.
    }
    if (!ctx->options->infix_check) infix_absorbed = false;
  }

  if (!backward_absorbed && !forward_absorbed && !infix_absorbed) {
    ctx->out->Add(pattern, support);
    ++ctx->stats->patterns_emitted;
  }

  if (ctx->options->max_length == 0 ||
      pattern.size() < ctx->options->max_length) {
    for (auto& [ev, ext_instances] : forward) {
      if (ctx->stop) break;
      if (ext_instances.size() < ctx->options->min_support) continue;
      Grow(ctx, pattern.Extend(ev), ext_instances);
    }
  }
  ctx->ws->forward.ReleaseMap(std::move(forward));
}

}  // namespace

PatternSet MineClosedIterative(const CountingBackend& backend,
                               const ClosedIterMinerOptions& options,
                               IterMinerStats* stats, ThreadPool* pool) {
  IterMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = IterMinerStats{};
  PatternSet out;
  Stopwatch sw;
  const size_t num_threads = ThreadPool::ResolveThreads(options.num_threads);
  if (num_threads > 1) {
    // One job per frequent root; each worker owns a PatternSet, stats and
    // workspace. Merging in root order reproduces the sequential DFS
    // emission order (and stats) exactly — the closed miner has no
    // truncation or external pruning callback.
    const std::vector<EventId> roots =
        FrequentRoots(backend, options.min_support);
    struct Job {
      PatternSet out;
      IterMinerStats stats;
      ProjectionWorkspace ws;
    };
    std::vector<std::unique_ptr<Job>> jobs(roots.size());
    for (size_t i = 0; i < roots.size(); ++i) {
      jobs[i] = std::make_unique<Job>();
    }
    stats->error = ThreadPool::ParallelForShared(
        pool, num_threads, roots.size(), [&](size_t i) {
          Job& job = *jobs[i];
          Ctx ctx{&backend, &options, &job.out, &job.stats, &job.ws};
          Pattern p{roots[i]};
          Grow(&ctx, p, SingleEventInstances(backend, roots[i]));
        });
    for (const auto& job : jobs) {
      stats->nodes_visited += job->stats.nodes_visited;
      stats->patterns_emitted += job->stats.patterns_emitted;
      stats->subtrees_pruned += job->stats.subtrees_pruned;
      if (job->stats.stopped != StatusCode::kOk) {
        stats->stopped = job->stats.stopped;
      }
      for (const MinedPattern& item : job->out.items()) {
        out.Add(item.pattern, item.support);
      }
    }
    stats->mine_seconds = sw.ElapsedSeconds();
    return out;
  }
  ProjectionWorkspace ws;
  Ctx ctx{&backend, &options, &out, stats, &ws};
  for (EventId ev = 0; ev < backend.num_events(); ++ev) {
    if (ctx.stop) break;
    if (backend.TotalCount(ev) < options.min_support) continue;
    Pattern p{ev};
    Grow(&ctx, p, SingleEventInstances(backend, ev));
  }
  stats->mine_seconds = sw.ElapsedSeconds();
  return out;
}

}  // namespace specmine
