// Iterative pattern *generator* mining — the first extension sketched in
// the paper's future work (Section 8): "The set of frequent patterns can
// be grouped into equivalence classes. Simply put, each class contains
// patterns having the same support. Generators are minimal members of
// equivalence classes of frequent patterns."
//
// Operational definition used here (mirroring the closed miner's
// single-event checks): a frequent pattern P is a generator iff no
// one-event deletion of P is itself a pattern with the same support whose
// instances each contain a distinct instance of P... inverted: iff no
// one-event deletion D of P has sup(D) == sup(P) with every instance of D
// corresponding to an instance of P — i.e. P adds no information over D.
// As with closedness, QRE support is not monotone along arbitrary
// super-sequence chains, so the one-event check is the tractable
// single-step reading of the equivalence-class definition; the property
// suite compares it against a brute-force variant on random databases.
//
// Where the deletion supports come from: the miner runs the frequent scan
// (ScanFrequentIterative) once, keeping every frequent pattern and its
// support in a table until the filter has run, then keeps, in emission
// order, each pattern with no one-event deletion in the table at equal
// support. The scan is complete, so a deletion absent from the table has
// support below min_support <= sup(P) and cannot absorb P; no deletion is
// recounted over the database. Only a scan cut short by the cancel token
// recounts its misses (the QRE recount on the mined backend), keeping a
// cancelled run's output a prefix of the complete one.

#ifndef SPECMINE_ITERMINE_GENERATORS_H_
#define SPECMINE_ITERMINE_GENERATORS_H_

#include "src/itermine/full_miner.h"

namespace specmine {

/// \brief Options for the iterative generator miner.
struct IterGeneratorMinerOptions {
  /// Minimum number of instances (absolute).
  uint64_t min_support = 1;
  /// Physical counting representation. Read by the Engine only; the miner
  /// mines whatever backend it is handed (and runs a cancelled scan's
  /// deletion recounts on that same backend).
  BackendChoice backend = BackendChoice::kAuto;
  /// Maximum pattern length; 0 means unbounded.
  size_t max_length = 0;
  /// Worker threads for the underlying scan (0 = hardware concurrency,
  /// 1 = sequential); output is identical at every setting.
  size_t num_threads = 0;
  /// Optional cooperative stop signal, forwarded to the underlying scan
  /// (see IterMinerOptions::cancel). Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// \brief Mines the frequent iterative generators over \p backend, in the
/// frequent scan's emission order; \p stats are the scan's. \p pool,
/// when non-null and matching the resolved thread count, runs the fan-out.
PatternSet MineIterativeGenerators(const CountingBackend& backend,
                                   const IterGeneratorMinerOptions& options,
                                   IterMinerStats* stats = nullptr,
                                   ThreadPool* pool = nullptr);

/// \brief True iff the one-event deletion check declares \p pattern a
/// generator, recounting every deletion on \p backend — the reference
/// the miner's table lookup must agree with (exposed for tests).
bool IsIterativeGenerator(const CountingBackend& backend,
                          const Pattern& pattern, uint64_t support);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_GENERATORS_H_
