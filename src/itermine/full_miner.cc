#include "src/itermine/full_miner.h"

#include "src/itermine/projection.h"
#include "src/support/cancel.h"
#include "src/support/stopwatch.h"
#include "src/support/thread_pool.h"

namespace specmine {

namespace {

// One root's subtree as a worker mined it, for the replay step.
struct SubtreeBuffer {
  std::vector<MinedPattern> emitted;  // DFS preorder.
  IterMinerStats stats;               // nodes_visited and stopped.
};

// The DFS over one root's subtree. Inline (one thread) it emits straight
// to the sink, so sink-driven subtree skips and max_patterns truncation
// act while growing. In a worker it emits into a SubtreeBuffer that the
// calling thread replays in root order, applying the same skips and
// truncation there.
struct Ctx {
  const HybridIndex* index;
  const IterMinerOptions* options;
  const std::function<bool(const Pattern&, uint64_t)>* sink;
  SubtreeBuffer* buffer;  // Null inline.
  IterMinerStats* stats;  // The run's inline, the buffer's in a worker.
  ProjectionWorkspace* ws;
  bool stop = false;
};

void Grow(Ctx* ctx, const Pattern& pattern, const InstanceList& instances) {
  if (ctx->stop) return;
  const CancelToken* cancel = ctx->options->cancel;
  if (cancel != nullptr && cancel->ShouldStop()) {
    // A buffer stopped here holds a prefix of its subtree's preorder; the
    // replay stops the delivered sequence after it, keeping the output a
    // prefix of the deterministic order.
    ctx->stats->stopped = cancel->stop_code();
    ctx->stop = true;
    return;
  }
  const size_t max_patterns = ctx->options->max_patterns;
  bool grow_subtree = true;
  if (ctx->buffer == nullptr) {
    ++ctx->stats->nodes_visited;
    ++ctx->stats->patterns_emitted;
    grow_subtree = (*ctx->sink)(pattern, instances.size());
    if (max_patterns != 0 && ctx->stats->patterns_emitted >= max_patterns) {
      ctx->stats->truncated = true;
      ctx->stop = true;
      return;
    }
  } else {
    // No single subtree can contribute more emissions than the global
    // cap, so stop buffering there — this bounds memory exactly like
    // inline truncation does for the non-pruning sinks that set the cap.
    if (max_patterns != 0 && ctx->buffer->emitted.size() >= max_patterns) {
      return;
    }
    ++ctx->stats->nodes_visited;
    ctx->buffer->emitted.push_back(MinedPattern{pattern, instances.size()});
  }
  if (!grow_subtree) return;
  if (ctx->options->max_length != 0 &&
      pattern.size() >= ctx->options->max_length) {
    return;
  }
  ForwardExtensionMap extensions = ctx->ws->forward.AcquireMap();
  ForwardExtensions(*ctx->index, pattern, instances,
                    ctx->options->min_support, ctx->ws, &extensions);
  for (auto& [ev, ext_instances] : extensions) {
    if (ctx->stop) break;
    Grow(ctx, pattern.Extend(ev), ext_instances);
  }
  ctx->ws->forward.ReleaseMap(std::move(extensions));
}

}  // namespace

void ScanFrequentIterative(
    const HybridIndex& index, const IterMinerOptions& options,
    const std::function<bool(const Pattern&, uint64_t)>& sink,
    IterMinerStats* stats, ThreadPool* pool) {
  IterMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = IterMinerStats{};
  Stopwatch sw;
  // Replay: a sink returning false skips every deeper emission that
  // follows (its subtree — preorder depth equals pattern length).
  size_t skip_below = 0;  // 0 = not skipping.
  const auto replay = [&](SubtreeBuffer& buffer) {
    stats->nodes_visited += buffer.stats.nodes_visited;
    for (const MinedPattern& e : buffer.emitted) {
      // A fired token ends the delivered sequence here — everything
      // already replayed is a prefix of the deterministic order.
      if (options.cancel != nullptr && options.cancel->ShouldStop()) {
        stats->stopped = options.cancel->stop_code();
        return false;
      }
      if (skip_below != 0) {
        if (e.pattern.size() > skip_below) continue;
        skip_below = 0;
      }
      ++stats->patterns_emitted;
      const bool grow_subtree = sink(e.pattern, e.support);
      if (options.max_patterns != 0 &&
          stats->patterns_emitted >= options.max_patterns) {
        stats->truncated = true;
        return false;
      }
      if (!grow_subtree) skip_below = e.pattern.size();
    }
    if (buffer.stats.stopped != StatusCode::kOk) {
      stats->stopped = buffer.stats.stopped;
    }
    return true;
  };
  OrderedFanOut<ProjectionWorkspace, SubtreeBuffer, EventId> fan(
      pool, ThreadPool::ResolveThreads(options.num_threads),
      [&](ProjectionWorkspace& ws, SubtreeBuffer* buffer, EventId root) {
        Ctx ctx{&index, &options, &sink, buffer,
                buffer == nullptr ? stats : &buffer->stats, &ws};
        Grow(&ctx, Pattern{root}, SingleEventInstances(index, root));
        // A worker's workspace grows to the largest subtree it projected;
        // dropping it after each root keeps memory at the subtrees in
        // flight rather than that peak once per worker.
        if (buffer != nullptr) ws = ProjectionWorkspace{};
        return !ctx.stop;
      },
      replay);
  for (EventId ev = 0; ev < index.num_events(); ++ev) {
    if (index.TotalCount(ev) < options.min_support) continue;
    if (!fan.Push(ev)) break;
  }
  stats->error = fan.Finish();
  stats->mine_seconds = sw.ElapsedSeconds();
}

}  // namespace specmine
