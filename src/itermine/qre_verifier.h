// Independent implementation of the QRE instance semantics (Definition
// 4.1), used as a test oracle against the projection engine and by the
// brute-force miners.

#ifndef SPECMINE_ITERMINE_QRE_VERIFIER_H_
#define SPECMINE_ITERMINE_QRE_VERIFIER_H_

#include "src/itermine/counting_backend.h"
#include "src/itermine/instance.h"
#include "src/patterns/pattern.h"
#include "src/trace/sequence_database.h"

namespace specmine {

struct QreRecountScratch;

/// \brief True iff seq[start..end] matches the QRE
/// p1;[-alphabet]*;p2;...;[-alphabet]*;pn of \p pattern, checked by direct
/// substring walk.
bool IsQreInstance(const Pattern& pattern, EventSpan seq, Pos start,
                   Pos end);

/// \brief All instances of \p pattern in \p seq, found by attempting the
/// deterministic first-alphabet-event chain from every occurrence of the
/// pattern's first event.
InstanceList FindInstances(const Pattern& pattern, EventSpan seq,
                           SeqId seq_id);

/// \brief All instances across the database, sorted by (seq, start).
InstanceList FindAllInstances(const Pattern& pattern,
                              const SequenceDatabase& db);

/// \brief Instance count across the database (the paper's support).
uint64_t CountInstances(const Pattern& pattern, const SequenceDatabase& db);

/// \brief Backend-accelerated instance recount: identical to
/// CountInstances(pattern, backend.db()). The CSR arm IS that oracle scan;
/// the vertical arm chain-walks first-set bits (vertical_projection_impl.h).
/// \p scratch, when non-null, keeps recount loops allocation-free.
uint64_t CountInstances(const CountingBackend& backend, const Pattern& pattern,
                        QreRecountScratch* scratch = nullptr);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_QRE_VERIFIER_H_
