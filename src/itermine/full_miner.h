// Full-set frequent iterative pattern mining (the "Full" series of Figure 1
// in the paper): depth-first pattern growth over the instance projection,
// pruned only by the apriori property (Theorem 1).

#ifndef SPECMINE_ITERMINE_FULL_MINER_H_
#define SPECMINE_ITERMINE_FULL_MINER_H_

#include <cstdint>
#include <functional>

#include "src/itermine/counting_backend.h"
#include "src/patterns/pattern_set.h"
#include "src/support/status.h"

namespace specmine {

class CancelToken;
class ThreadPool;

/// \brief Options shared by the iterative pattern miners.
struct IterMinerOptions {
  /// Minimum number of instances (absolute).
  uint64_t min_support = 1;
  /// Physical counting representation: kAuto picks per database via
  /// ChooseBackendKind (density x alphabet heuristic); kCsr, kBitmap
  /// (a HybridIndex at kBitmapDenseCutoff) and kHybrid (one at its tuned
  /// cutoff) force one. Read by the Engine only; the miners mine whatever
  /// backend they are handed. Output is byte-identical across backends.
  BackendChoice backend = BackendChoice::kAuto;
  /// Maximum pattern length; 0 means unbounded.
  size_t max_length = 0;
  /// Safety valve for the full miner at very low thresholds: stop after
  /// emitting this many patterns (0 = unbounded). The benchmark harness
  /// sets a generous cap and reports when it is hit.
  size_t max_patterns = 0;
  /// Worker threads for first-level subtree parallelism; 0 = hardware
  /// concurrency, 1 = today's exact sequential behavior. Emitted pattern
  /// sets are identical at every setting (sinks run on the calling
  /// thread, in sequential order); only nodes_visited can differ when a
  /// sink prunes or max_patterns truncates, because workers may have
  /// expanded nodes the sequential run never reached. One caveat: with
  /// num_threads > 1, a sink that *prunes* (returns false) combined with
  /// max_patterns may truncate earlier than the sequential run, because
  /// each worker buffers at most max_patterns emissions per subtree
  /// before replay-side skips are known (no in-tree caller combines the
  /// two; set num_threads = 1 if you must).
  size_t num_threads = 0;
  /// Optional cooperative stop signal, polled at subtree granularity. A
  /// stopped run's sink output is a prefix of the uncancelled run's
  /// deterministic emission order (at every thread count); the reason is
  /// reported in IterMinerStats::stopped. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// \brief Statistics describing one miner run.
struct IterMinerStats {
  size_t nodes_visited = 0;     ///< DFS nodes expanded.
  size_t patterns_emitted = 0;  ///< Patterns written to the output.
  size_t subtrees_pruned = 0;   ///< Closed miner: P1/P2 subtree prunes.
  bool truncated = false;       ///< True iff max_patterns stopped the run.
  double mine_seconds = 0.0;    ///< Pattern-growth time.
  /// kCancelled / kDeadlineExceeded when the run's CancelToken stopped it
  /// early; kOk otherwise.
  StatusCode stopped = StatusCode::kOk;
  /// First internal failure of a parallel fan-out (an exception escaping
  /// a worker task, converted by the ThreadPool); OK otherwise.
  Status error = Status::OK();
};

/// \brief Mines every frequent iterative pattern over \p backend; \p sink
/// receives (pattern, support) and returns false to skip growing that
/// pattern's subtree.
///
/// Support of P = number of QRE instances, counted within and across
/// sequences. Patterns of length >= 1 are emitted. \p pool, when non-null
/// and matching the resolved thread count, runs the first-level fan-out
/// instead of a fresh pool per call.
void ScanFrequentIterative(
    const CountingBackend& backend, const IterMinerOptions& options,
    const std::function<bool(const Pattern&, uint64_t)>& sink,
    IterMinerStats* stats = nullptr, ThreadPool* pool = nullptr);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_FULL_MINER_H_
