// The sharded execution path: two-phase partition mining of the full
// frequent-iterative-pattern set over a ShardedDatabase, byte-identical to
// the single-database pass (docs/architecture.md, "Sharded execution").
//
// Phase 1 mines every shard independently — in parallel on the session's
// ThreadPool — at the proportional local threshold
//
//     t_i = max(1, ceil(S * events_i / events_total))
//
// with an additional cross-shard subtree prune: every instance of P in
// shard j starts at a distinct occurrence of P's first event and contains
// every event of P, so count_j(P) <= min over P's events of their
// occurrence counts in j. A node whose local count plus that cap summed
// over the other shards cannot reach the global S has no globally
// frequent descendant (counts only fall, alphabets only grow down the
// subtree) and is skipped. Completeness: by the partition (pigeonhole)
// argument some shard i0 has count_i0(P) >= t_i0 for any globally
// frequent P, and in that shard the cross-shard bound also clears S —
// for P and, by monotonicity, every prefix — so shard i0's miner records
// P; the union over shards is a complete candidate set. For modular
// corpora with (near-)disjoint shard alphabets the cross term is ~0 and
// each shard effectively mines at the full global threshold.
//
// Phase 2 completes the support counts over one candidate table: every
// shard's phase-1 reports (pointers to its patterns, with exact local
// counts) sorted once by (merged EventIds, shard), so each distinct
// pattern is one run of reports. Any other shard that could hold an
// instance lies on the candidate's shortest per-event shard posting list
// (a shard where some candidate event never occurs has occurrence cap
// zero and costs nothing), so only that list is walked. For each
// unreported shard on it the occurrence cap is consulted first — a
// candidate provably below S is dropped unscanned — and only the
// remaining pairs are recounted exactly with the QRE oracle. Phase 3
// filters by the global threshold in the table's order, lexicographic by
// merged EventIds, which *is* the single-pass DFS preorder — so emission
// order, content and supports all match the unsharded miner exactly
// (property-tested in tests/shard_engine_test.cc).

#ifndef SPECMINE_ENGINE_SHARD_EXEC_H_
#define SPECMINE_ENGINE_SHARD_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/engine/phase1_cache.h"
#include "src/itermine/full_miner.h"
#include "src/patterns/pattern_set.h"
#include "src/trace/shard_set.h"

namespace specmine {

class ThreadPool;

/// \brief How one shard's phase-1 candidates were obtained.
struct ShardScanStat {
  bool cached = false;          ///< Served from the phase-1 cache.
  uint64_t threshold = 0;       ///< Local threshold (frozen for hits).
  size_t nodes_visited = 0;     ///< Phase-1 DFS nodes (0 for cache hits).
  size_t local_patterns = 0;    ///< Candidates this shard contributed.
};

/// \brief Statistics of one sharded full-pattern run.
struct ShardExecStats {
  size_t nodes_visited = 0;    ///< DFS nodes over all shard miners.
  size_t local_patterns = 0;   ///< Phase-1 emissions over all shards.
  size_t candidates = 0;       ///< Distinct candidate patterns.
  size_t bound_skips = 0;      ///< Phase-2 candidates dropped by the bound.
  size_t recounts = 0;         ///< Phase-2 oracle recounts that scanned.
  size_t shards_scanned = 0;   ///< Shards whose phase-1 DFS actually ran.
  size_t shards_cached = 0;    ///< Shards served from the phase-1 cache.
  /// Per-shard phase-1 provenance, in shard order. The incremental
  /// acceptance test pins "append one shard, re-mine" to exactly one
  /// scanned shard with every old shard at 0 phase-1 nodes.
  std::vector<ShardScanStat> shard_scans;
  double mine_seconds = 0.0;   ///< Wall clock of the three phases.
  /// kCancelled / kDeadlineExceeded when options.cancel stopped the run.
  /// A run stopped during phase 1 or 2 returns an empty set (the empty
  /// prefix); one stopped during phase 3 returns a prefix of the canonical
  /// emission order with exact supports.
  StatusCode stopped = StatusCode::kOk;
  /// First error raised by a pool worker (e.g. an escaped exception).
  Status error = Status::OK();
};

/// \brief Cache wiring for MineShardedFull. With this in play the run
/// reuses loaded entries (skipping those shards' phase-1 DFS entirely) and
/// reports back a fresh entry set covering exactly the current shards.
///
/// Soundness differs from the cache-less path in two deliberate ways, both
/// output-preserving (tests/append_test.cc pins byte-identity):
///
///   * scans keep the cross-shard subtree prune (it is what makes low
///     local thresholds tractable), and each entry carries the evidence
///     that makes its pruned omissions checkable later: the digests of
///     every shard present at scan time plus per-event prune margins —
///     the minimum distance any pruned subtree root had to the global
///     threshold. An entry is reused only if its epoch's shards are all
///     still present and the occurrences added since stay strictly below
///     every margin; otherwise the shard is rescanned. The prune only
///     ever removes patterns whose global support is provably below the
///     threshold, so phases 2/3 erase the difference.
///   * local thresholds come from a frozen budget split rather than the
///     proportional ceiling: completeness needs only
///     sum over shards of (t_i - 1) <= min_support - 1 (pigeonhole).
///     Reused entries consume their stored (t - 1); scanned shards split
///     the leftover proportionally by event weight. The invariant holds
///     inductively across append epochs, so entries written generations
///     ago stay sound. When accumulated entries would squeeze a scanned
///     shard below half its proportional threshold, every hit is dropped
///     and the whole set rescans — a self-healing reset of the split.
struct ShardCacheIO {
  /// Entries loaded from disk to consult; may be null or empty.
  const Phase1Cache* loaded = nullptr;
  /// Out: entries for the current shards (reused + freshly scanned),
  /// ready for SavePhase1Cache. Filled only on a clean, unstopped run.
  Phase1Cache* updated = nullptr;
  /// Per-shard content digests (MappedDatabase::ComputeContentDigest),
  /// one per shard of the set, in shard order. Size mismatch disables
  /// caching for the run.
  std::vector<uint64_t> shard_digests;
};

/// \brief Mines the full frequent iterative pattern set of \p set with the
/// two-phase partition scheme.
///
/// \p backends must hold one counting backend per shard, in shard order
/// (each indexing that shard's database; kinds may differ per shard — the
/// adaptive chooser picks per shard density). Phase-1 scans and phase-2
/// recounts both run on the shard's backend; output is byte-identical for
/// every backend mix. \p options.min_support is the *global* absolute
/// threshold; \p options.max_length is honored; \p options.max_patterns is
/// ignored here (the caller cuts delivery — the sorted order makes the
/// prefix identical to single-pass truncation); \p options.num_threads
/// sizes the shard fan-out (through \p pool when it matches, exactly like
/// the in-shard miners).
///
/// Returns the patterns in merged EventIds with exact global supports, in
/// the single-pass emission order.
/// When \p cache is non-null, phase 1 consults and refreshes the phase-1
/// candidate cache as described on ShardCacheIO; output stays
/// byte-identical to the cache-less run.
PatternSet MineShardedFull(const ShardedDatabase& set,
                           const std::vector<CountingBackend>& backends,
                           const IterMinerOptions& options,
                           ShardExecStats* stats = nullptr,
                           ThreadPool* pool = nullptr,
                           ShardCacheIO* cache = nullptr);

}  // namespace specmine

#endif  // SPECMINE_ENGINE_SHARD_EXEC_H_
