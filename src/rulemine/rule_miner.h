// The recurrent-rule miner: Steps 1-5 of Section 5, in Full and
// Non-Redundant (NR) configurations — the two series of Figures 2 and 3.

#ifndef SPECMINE_RULEMINE_RULE_MINER_H_
#define SPECMINE_RULEMINE_RULE_MINER_H_

#include <cstdint>

#include "src/itermine/counting_backend.h"
#include "src/rulemine/redundancy.h"
#include "src/rulemine/rule.h"
#include "src/support/status.h"
#include "src/trace/sequence_database.h"

namespace specmine {

class CancelToken;

/// \brief Options for recurrent rule mining.
struct RuleMinerOptions {
  /// Minimum sequence support of the premise (absolute).
  uint64_t min_s_support = 1;
  /// Minimum confidence in [0, 1].
  double min_confidence = 0.5;
  /// Minimum instance support of premise++consequent (absolute). The paper
  /// runs its experiments at 1; there is no pruning property for it
  /// (Section 6), so it is applied as a post-filter (Step 4).
  uint64_t min_i_support = 1;
  /// Maximum premise / consequent lengths; 0 means unbounded.
  size_t max_premise_length = 0;
  size_t max_consequent_length = 0;
  /// NR pipeline (generator premises, closed consequents, Step-5 sweep)
  /// versus Full pipeline (every significant rule).
  bool non_redundant = true;
  /// Redundancy interpretation for the Step-5 sweep (see redundancy.h).
  RedundancyOptions redundancy;
  /// Safety valve: stop after this many candidate rules (0 = unbounded).
  size_t max_rules = 0;
  /// Physical counting representation for the i-support occurrence counts
  /// and the Step-1 insertion-window tests. Read by the Engine only, which
  /// passes its cached backend down; MineRecurrentRules uses whatever
  /// backend it is handed and runs scalar scans without one.
  BackendChoice backend = BackendChoice::kAuto;
  /// Worker threads for Steps 3-4; 0 = hardware concurrency. The premise
  /// scan runs on the calling thread and hands each premise to a worker
  /// as it is enumerated; rules and stats are identical at every setting.
  /// A run with max_rules != 0 uses one worker, to stop where one does.
  size_t num_threads = 0;
  /// Optional cooperative stop signal, polled per premise (the rule
  /// miner's subtree granularity). A stopped run reports the reason in
  /// RuleMinerStats::stopped. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// \brief Statistics describing one rule-miner run.
struct RuleMinerStats {
  size_t premises_enumerated = 0;
  size_t candidate_rules = 0;   ///< Rules before Steps 4-5.
  size_t rules_emitted = 0;     ///< Final output size.
  bool truncated = false;       ///< True iff max_rules stopped the run.
  /// kCancelled / kDeadlineExceeded when a CancelToken stopped the run.
  StatusCode stopped = StatusCode::kOk;
  /// First internal failure of the per-premise fan-out; OK otherwise.
  Status error = Status::OK();
};

class ThreadPool;

/// \brief Mines recurrent rules from \p db per \p options.
///
/// \p pool, when non-null and matching the resolved thread count, runs the
/// per-premise fan-out instead of a fresh pool per call. \p backend, when
/// non-null (and indexing \p db), accelerates the i-support occurrence
/// counts and the premise maximality tests; the rule set is identical with
/// and without it. New code should go through specmine::Engine
/// (src/engine/engine.h), which validates options up front and shares one
/// thread pool and index across a session's tasks.
RuleSet MineRecurrentRules(const SequenceDatabase& db,
                           const RuleMinerOptions& options,
                           RuleMinerStats* stats = nullptr,
                           ThreadPool* pool = nullptr,
                           const CountingBackend* backend = nullptr);

}  // namespace specmine

#endif  // SPECMINE_RULEMINE_RULE_MINER_H_
