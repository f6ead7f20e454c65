// Independent implementation of the QRE instance semantics (Definition
// 4.1), used as a test oracle against the projection engine and by the
// brute-force miners. The indexed recount is CountInstances(index,
// pattern) in projection.h.

#ifndef SPECMINE_ITERMINE_QRE_VERIFIER_H_
#define SPECMINE_ITERMINE_QRE_VERIFIER_H_

#include "src/itermine/instance.h"
#include "src/patterns/pattern.h"
#include "src/trace/sequence_database.h"

namespace specmine {

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

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_QRE_VERIFIER_H_
