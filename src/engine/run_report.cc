#include "src/engine/run_report.h"

#include <sstream>

namespace specmine {

std::string RunReport::ToString() const {
  std::ostringstream os;
  os << "task=" << task;
  if (patterns_emitted != 0) os << " patterns=" << patterns_emitted;
  if (rules_emitted != 0) os << " rules=" << rules_emitted;
  if (nodes_visited != 0) os << " nodes=" << nodes_visited;
  if (premises_enumerated != 0) os << " premises=" << premises_enumerated;
  if (candidate_rules != 0) os << " candidates=" << candidate_rules;
  if (subtrees_pruned != 0) os << " pruned=" << subtrees_pruned;
  if (truncated) os << " truncated";
  if (!backend.empty()) os << " backend=" << backend;
  if (shards_total != 0) {
    os << " shards=" << shards_total;
    if (shards_quarantined != 0) {
      os << " quarantined=" << shards_quarantined;
    }
    if (shards_cached != 0) {
      os << " scanned=" << shards_scanned << " cached=" << shards_cached;
    }
    if (shard_local_patterns != 0) {
      os << " local_patterns=" << shard_local_patterns
         << " shard_candidates=" << shard_candidates
         << " recounts=" << shard_recounts
         << " bound_skips=" << shard_bound_skips;
    }
  }
  os << " index=" << index_build_seconds << "s mine=" << mine_seconds << "s";
  return os.str();
}

}  // namespace specmine
