// Consequent (post-condition) mining — Step 3 of the paper's rule-mining
// pipeline: sequential patterns over the database of temporal-point
// suffixes, thresholded by min_conf × |points| (Theorem 3's confidence
// apriori), full or closed.

#ifndef SPECMINE_RULEMINE_CONSEQUENT_MINER_H_
#define SPECMINE_RULEMINE_CONSEQUENT_MINER_H_

#include <cstdint>

#include "src/patterns/pattern_set.h"
#include "src/rulemine/temporal_points.h"
#include "src/seqmine/prefixspan.h"
#include "src/trace/sequence_database.h"

namespace specmine {

/// \brief Options for consequent enumeration.
struct ConsequentMinerOptions {
  /// Minimum confidence in [0, 1].
  double min_confidence = 0.5;
  /// Maximum consequent length; 0 means unbounded.
  size_t max_length = 0;
  /// Mine only closed consequents (the NR pipeline's Step-3 pruning):
  /// a consequent absorbed by a super-sequence with the same satisfied
  /// point set is dropped. When false every qualifying consequent is
  /// enumerated (Full mode).
  bool closed_pruning = true;
  /// Safety valve (0 = unbounded), full mode only.
  size_t max_consequents = 0;
};

/// \brief The smallest satisfied-point count meeting \p min_confidence over
/// \p total_points, never below 1.
uint64_t ConfidenceSupportThreshold(double min_confidence,
                                    uint64_t total_points);

/// \brief The units Step 3 mines for a premise with temporal \p points in
/// \p db, one per point j: the suffix after j (forward), or, when
/// \p backward, the strict prefix before j, which is the suffix of the
/// reversed sequence starting at len - j (units into ReverseDatabase(db)).
std::vector<Unit> ConsequentUnits(const SequenceDatabase& db,
                                  const TemporalPointSet& points,
                                  bool backward);

/// \brief Mines consequents over \p units, one unit per temporal point
/// (the suffix a consequent must occur in); the confidence threshold is
/// taken over units.size() points. Each returned pattern's support is its
/// satisfied-point count. \p ws is optional reusable scratch (null means a
/// local workspace); a rule run keeps one per worker for all its premises.
PatternSet MineConsequents(const UnitDatabase& units,
                           const ConsequentMinerOptions& options,
                           SequentialWorkspace* ws = nullptr);

}  // namespace specmine

#endif  // SPECMINE_RULEMINE_CONSEQUENT_MINER_H_
