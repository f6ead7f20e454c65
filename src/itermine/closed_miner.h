// Closed iterative pattern mining (the "Closed" series of Figure 1;
// algorithmic details in Lo, Khoo & Liu, KDD 2007).
//
// A frequent pattern P is reported iff it is closed (Definition 4.2): no
// super-sequence Q has equal support together with a one-to-one
// correspondence between instances. Closedness is decided by three checks
// (see projection.h and DESIGN.md §1.1 for the proofs and the documented
// caveat about exotic multi-event absorbers):
//
//   1. forward absorption  — some P++<e> has sup == sup(P);
//   2. backward absorption — some <e>++P has sup == sup(P);
//   3. infix absorption    — some out-of-alphabet event has a uniform
//      non-zero per-gap count profile across all instances.
//
// Search-space pruning (the source of the paper's Figure-1 runtime gap):
//
//   P1 (sound)    : some e IN alphabet(P) sits immediately before the start
//                   of every instance. Every descendant P' then admits the
//                   backward absorber <e>++P' (e is in every descendant's
//                   alphabet, so gaps already exclude it, and adjacency
//                   leaves no room for interference) — the subtree contains
//                   no closed pattern.
//   P2 (heuristic): the same with e OUTSIDE alphabet(P) (and e absent from
//                   all instance gaps). Sound for P itself; a descendant
//                   could in principle re-introduce e inside a *new* gap and
//                   become closed. Emitted patterns are always verified, so
//                   P2 can only cause closed patterns to be missed; the
//                   property suite quantifies this against the filter-only
//                   miner (no divergence observed on randomized runs).

#ifndef SPECMINE_ITERMINE_CLOSED_MINER_H_
#define SPECMINE_ITERMINE_CLOSED_MINER_H_

#include "src/itermine/full_miner.h"

namespace specmine {

/// \brief Options for the closed iterative pattern miner.
struct ClosedIterMinerOptions {
  /// Minimum number of instances (absolute).
  uint64_t min_support = 1;
  /// Index layout (see IterMinerOptions::backend). Read by the Engine
  /// only; the miner mines whatever index it is handed.
  BackendChoice backend = BackendChoice::kAuto;
  /// Maximum pattern length; 0 means unbounded.
  size_t max_length = 0;
  /// Enable the sound P1 subtree prune.
  bool prefix_prune = true;
  /// Enable the heuristic P2 subtree prune (see header comment).
  bool aggressive_prefix_prune = true;
  /// Enable the infix (uniform-gap-profile) closedness check. Disabling it
  /// makes the miner report a superset of the closed patterns (useful for
  /// ablation benchmarks).
  bool infix_check = true;
  /// P3 (heuristic): prune the whole subtree when a uniform-profile infix
  /// absorber exists. Suffix-extending by the absorber event itself is
  /// impossible (it would sit inside an old gap and break the instance
  /// chain), and any other suffix extension keeps the old-gap profile
  /// uniform, so the absorber survives unless the extension re-introduces
  /// the event *after* the pattern with non-uniform counts — the same
  /// caveat class as P2. This prune is what collapses the search space on
  /// deterministic protocol traces (the JBoss case study shape): every
  /// "skip one call of the protocol" subtree is entirely non-closed.
  bool infix_prune = true;
  /// Worker threads for first-level subtree parallelism; 0 = hardware
  /// concurrency, 1 = sequential. Output and stats are identical at every
  /// setting (per-root results are replayed in root order).
  size_t num_threads = 0;
  /// Optional cooperative stop signal, polled at subtree granularity; a
  /// stopped run returns whatever was mined so far and reports the reason
  /// in IterMinerStats::stopped. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// \brief Mines the closed frequent iterative patterns over \p index.
/// \p pool, when non-null and matching the resolved thread count, runs the
/// first-level fan-out.
PatternSet MineClosedIterative(const HybridIndex& index,
                               const ClosedIterMinerOptions& options,
                               IterMinerStats* stats = nullptr,
                               ThreadPool* pool = nullptr);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_CLOSED_MINER_H_
