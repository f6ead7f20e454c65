// Closed sequential pattern mining in the style of BIDE (Wang & Han, ICDE
// 2004): BI-Directional Extension closure checking plus BackScan search
// space pruning, adapted to the unit-database abstraction.
//
// A frequent pattern P is closed iff no super-sequence has the same unit
// support. Because unit support is anti-monotone under the subsequence
// relation, it suffices to check single-event insertions:
//
//  * forward extension: some P++<e> has equal support;
//  * backward extension: for some slot i there is an event e present in the
//    i-th *maximum period* of every supporting unit, where the i-th maximum
//    period is the exclusive interval between the end of the earliest
//    embedding of p1..p(i-1) and the start of the latest embedding of
//    pi..pn.
//
// BackScan prunes a whole subtree when an event is present in some i-th
// *semi-maximum period* (between earliest embeddings only) of every unit:
// every descendant then has the same absorbing backward extension.

#ifndef SPECMINE_SEQMINE_CLOSED_SEQUENTIAL_MINER_H_
#define SPECMINE_SEQMINE_CLOSED_SEQUENTIAL_MINER_H_

#include "src/seqmine/prefixspan.h"

namespace specmine {

/// \brief Options for the closed sequential miner.
struct ClosedSeqMinerOptions {
  /// Minimum number of supporting units (absolute).
  uint64_t min_support = 1;
  /// Maximum pattern length; 0 means unbounded.
  size_t max_length = 0;
  /// Enable BackScan subtree pruning (sound; large speedups).
  bool backscan_pruning = true;
  /// Optional cooperative stop signal, polled per DFS subtree. Not owned;
  /// may be null.
  const CancelToken* cancel = nullptr;
};

/// \brief Mines the closed frequent sequential patterns over \p units.
/// \p ws is optional reusable scratch; null means a local workspace.
PatternSet MineClosedSequential(const UnitDatabase& units,
                                const ClosedSeqMinerOptions& options,
                                SeqMinerStats* stats = nullptr,
                                SequentialWorkspace* ws = nullptr);

}  // namespace specmine

#endif  // SPECMINE_SEQMINE_CLOSED_SEQUENTIAL_MINER_H_
