#include "src/itermine/closed_miner.h"

#include "src/itermine/projection.h"
#include "src/support/cancel.h"
#include "src/support/stopwatch.h"
#include "src/support/thread_pool.h"

namespace specmine {

namespace {

struct Ctx {
  const HybridIndex* index;
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
  // projection for pruned subtrees. Both read only extensions of equal
  // support, and no extension exceeds it, so the query runs at the
  // pattern's own support. The result buffer lives in the workspace and
  // is fully consumed before any recursive call.
  const BackwardExtensionMap& backward = BackwardExtensions(
      *ctx->index, pattern, instances, support, ctx->ws);
  bool backward_absorbed = false;
  for (const auto& [ev, ext] : backward) {
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
  ForwardExtensions(*ctx->index, pattern, instances,
                    ctx->options->min_support, ctx->ws, &forward);
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
    infix_absorbed = HasUniformInfixAbsorber(ctx->index->db(), pattern,
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
      Grow(ctx, pattern.Extend(ev), ext_instances);
    }
  }
  ctx->ws->forward.ReleaseMap(std::move(forward));
}

}  // namespace

PatternSet MineClosedIterative(const HybridIndex& index,
                               const ClosedIterMinerOptions& options,
                               IterMinerStats* stats, ThreadPool* pool) {
  IterMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = IterMinerStats{};
  PatternSet out;
  Stopwatch sw;
  // One job per frequent root. Inline (one thread) a job grows straight
  // into the run's output; a worker grows into a buffer of its own, and
  // replaying the buffers in root order reproduces the one-thread output
  // and stats exactly — the closed miner has no truncation or external
  // pruning callback. A cancelled job is the last one replayed.
  struct RootBuffer {
    PatternSet out;
    IterMinerStats stats;
  };
  OrderedFanOut<ProjectionWorkspace, RootBuffer, EventId> fan(
      pool, ThreadPool::ResolveThreads(options.num_threads),
      [&](ProjectionWorkspace& ws, RootBuffer* buffer, EventId root) {
        Ctx ctx{&index, &options, buffer == nullptr ? &out : &buffer->out,
                buffer == nullptr ? stats : &buffer->stats, &ws};
        Grow(&ctx, Pattern{root}, SingleEventInstances(index, root));
        // A worker's workspace grows to the largest subtree it projected;
        // dropping it after each root keeps memory at the subtrees in
        // flight rather than that peak once per worker.
        if (buffer != nullptr) ws = ProjectionWorkspace{};
        return !ctx.stop;
      },
      [&](RootBuffer& buffer) {
        stats->nodes_visited += buffer.stats.nodes_visited;
        stats->patterns_emitted += buffer.stats.patterns_emitted;
        stats->subtrees_pruned += buffer.stats.subtrees_pruned;
        if (buffer.stats.stopped != StatusCode::kOk) {
          stats->stopped = buffer.stats.stopped;
        }
        for (const MinedPattern& item : buffer.out.items()) {
          out.Add(item.pattern, item.support);
        }
        return true;
      });
  for (EventId ev = 0; ev < index.num_events(); ++ev) {
    if (index.TotalCount(ev) < options.min_support) continue;
    if (!fan.Push(ev)) break;
  }
  stats->error = fan.Finish();
  stats->mine_seconds = sw.ElapsedSeconds();
  return out;
}

}  // namespace specmine
