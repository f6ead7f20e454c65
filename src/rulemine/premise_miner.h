// Premise (pre-condition) mining — Step 1 of the paper's rule-mining
// pipeline: sequential patterns frequent by sequence support, optionally
// pruned to the ⊑-maximal member of each occurrence-equivalence class.
//
// Two premises with identical temporal-point sets yield identical
// statistics for every consequent (the points determine s-support,
// confidence and — via the earliest-embedding chain — the i-support of
// every concatenation). Under Definition 5.2 the rule with the *larger*
// concatenation dominates at equal statistics, so of an equivalence class
// only the ⊑-maximal premises can form non-redundant rules: a premise
// admitting a point-preserving one-event insertion is pruned, together
// with its whole subtree (forward growth preserves the equivalence, and a
// maximal premise's DFS prefixes are themselves maximal, so the surviving
// branches still enumerate every class representative).

#ifndef SPECMINE_RULEMINE_PREMISE_MINER_H_
#define SPECMINE_RULEMINE_PREMISE_MINER_H_

#include <cstdint>
#include <functional>

#include "src/itermine/hybrid_index.h"
#include "src/patterns/pattern.h"
#include "src/rulemine/temporal_points.h"
#include "src/seqmine/prefixspan.h"
#include "src/trace/sequence_database.h"

namespace specmine {

/// \brief Options for premise enumeration.
struct PremiseMinerOptions {
  /// Minimum number of supporting sequences (absolute).
  uint64_t min_s_support = 1;
  /// Maximum premise length; 0 means unbounded.
  size_t max_length = 0;
  /// Prune premises (and their subtrees) that admit a point-preserving
  /// one-event insertion — the NR pipeline's Step-1 pruning, keeping only
  /// ⊑-maximal premises per occurrence-equivalence class. When false every
  /// frequent premise is enumerated (Full mode).
  bool maximality_pruning = true;
};

/// \brief Enumerates the premises of index.db(); \p sink receives each
/// premise with its temporal points. The sink's return value controls
/// subtree growth (return false to stop growing — used for external budget
/// caps). The maximality pruning's insertion-window emptiness tests are
/// range queries on \p index, one per (sequence, slot).
void ScanPremises(
    const HybridIndex& index, const PremiseMinerOptions& options,
    const std::function<bool(const Pattern&, const TemporalPointSet&)>& sink,
    SeqMinerStats* stats = nullptr);

}  // namespace specmine

#endif  // SPECMINE_RULEMINE_PREMISE_MINER_H_
