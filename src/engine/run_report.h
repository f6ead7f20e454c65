// RunReport: the uniform statistics record every Engine task returns,
// unifying the per-miner stats structs (IterMinerStats, RuleMinerStats,
// SeqMinerStats) behind one shape a server loop can log or bill against.

#ifndef SPECMINE_ENGINE_RUN_REPORT_H_
#define SPECMINE_ENGINE_RUN_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace specmine {

/// \brief Statistics describing one Engine task run.
///
/// Counter fields not meaningful for a task stay 0 (a rules run has no
/// patterns_emitted; an episode run has no premises_enumerated).
struct RunReport {
  /// Task identifier ("full-patterns", "closed-patterns", "generators",
  /// "rules", "backward-rules", "sequential", "closed-sequential",
  /// "sequential-generators", "episodes-winepi", "episodes-minepi",
  /// "two-event").
  std::string task;

  size_t nodes_visited = 0;        ///< DFS nodes expanded.
  size_t patterns_emitted = 0;     ///< Patterns delivered to the sink.
  size_t rules_emitted = 0;        ///< Rules delivered to the sink.
  size_t premises_enumerated = 0;  ///< Rule mining Step 1 count.
  size_t candidate_rules = 0;      ///< Rules before Steps 4-5.
  size_t subtrees_pruned = 0;      ///< Closed miner: P1-P3 subtree prunes.
  bool truncated = false;          ///< A cap or the sink stopped the run.

  /// The counting index layout the run used: "bitmap", "hybrid", "mixed"
  /// (MineSharded runs whose shards resolved differently), or empty for
  /// tasks that use no counting index (sequential, episodes, two-event).
  /// A sharded session's Mine reports the backend resolved over its
  /// merged arena, the same as the equivalent single .smdb.
  std::string backend;

  /// Counting index construction time spent by *this* call. 0 when the
  /// session's cached index was reused (or the task needs no index) — the
  /// session-reuse signal the engine tests assert on.
  double index_build_seconds = 0.0;
  /// Mining wall-clock (everything after index construction).
  double mine_seconds = 0.0;

  /// Sharded sessions only: how many shards the manifest lists, how many
  /// were quarantined at open (ShardFailurePolicy::kQuarantine), and the
  /// per-shard error strings ("shard 3 (path): header checksum mismatch").
  /// A degraded run mines the healthy subset; fractional thresholds are
  /// rescaled to the surviving trace count automatically because the
  /// merged database only holds healthy shards.
  size_t shards_total = 0;
  size_t shards_quarantined = 0;
  std::vector<std::string> shard_errors;

  /// Sharded full-pattern runs only: phase-1 provenance. A shard is
  /// *scanned* when its phase-1 DFS actually ran and *cached* when its
  /// candidates were replayed from the phase-1 candidate cache
  /// (phase1_cache.h) — after an append, a warm re-mine scans exactly the
  /// new shards (the incremental acceptance test pins old shards at 0
  /// nodes in shard_phase1_nodes, which is in shard order).
  size_t shards_scanned = 0;
  size_t shards_cached = 0;
  std::vector<size_t> shard_phase1_nodes;

  /// Sharded full-pattern runs only: the candidate counters
  /// (shard_exec.h). shard_local_patterns sums every shard's phase-1
  /// emissions (replayed entries included); shard_candidates counts the
  /// distinct patterns among them. Phase 2 drops shard_bound_skips
  /// candidates on the occurrence-cap bound alone and runs
  /// shard_recounts exact (candidate, shard) oracle recounts; shards with
  /// disjoint alphabets need none.
  size_t shard_local_patterns = 0;
  size_t shard_candidates = 0;
  size_t shard_bound_skips = 0;
  size_t shard_recounts = 0;

  /// \brief One-line "task=... patterns=... index=...s mine=...s" summary.
  std::string ToString() const;
};

}  // namespace specmine

#endif  // SPECMINE_ENGINE_RUN_REPORT_H_
