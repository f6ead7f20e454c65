// Subsequence-embedding primitives shared by the sequential-pattern miners
// and the recurrent-rule miner.
//
// These implement the *plain subsequence* semantics of Section 3.1 / 5 of
// the paper (arbitrary gaps allowed), as opposed to the QRE instance
// semantics of iterative patterns (src/itermine/).

#ifndef SPECMINE_SEQMINE_OCCURRENCE_ENGINE_H_
#define SPECMINE_SEQMINE_OCCURRENCE_ENGINE_H_

#include <vector>

#include "src/itermine/counting_backend.h"
#include "src/patterns/pattern.h"
#include "src/trace/position_index.h"
#include "src/trace/sequence.h"

namespace specmine {

/// \brief End position of the earliest (greedy, leftmost) embedding of
/// \p pattern into \p seq restricted to positions >= \p begin.
///
/// Returns kNoPos when the pattern does not embed. An empty pattern embeds
/// trivially "before begin": the function returns \p begin - 1 semantics via
/// kNoPos-safe convention — callers pass empty patterns only through
/// OccurrencePoints, which handles them explicitly.
Pos EarliestEmbeddingEnd(const Pattern& pattern, EventSpan seq,
                         Pos begin = 0);

/// \brief True iff \p pattern is a subsequence of seq[begin..].
bool EmbedsAt(const Pattern& pattern, EventSpan seq, Pos begin = 0);

/// \brief The occurrence (temporal) points of \p pattern in \p seq
/// (Definition 5.1): all positions j >= \p begin with seq[j] == last(pattern)
/// such that pattern embeds into seq[begin..j] with its last event at j.
///
/// For the empty pattern this returns an empty vector (the rule miner never
/// asks for it). Positions are 0-based and sorted ascending.
std::vector<Pos> OccurrencePoints(const Pattern& pattern, EventSpan seq,
                                  Pos begin = 0);

/// \brief Number of occurrence points of \p pattern summed over all
/// sequences of \p db.
size_t CountOccurrences(const Pattern& pattern, const SequenceDatabase& db);

/// \brief Backend-accelerated occurrence count: identical to
/// CountOccurrences(pattern, backend.db()). The CSR arm IS that scalar
/// scan; the vertical arm runs the greedy prefix chain word-wise and
/// popcounts the last event's tail (the rule miner's i-support hot path).
size_t CountOccurrences(const CountingBackend& backend,
                        const Pattern& pattern);

/// \brief Start position of the latest (rightmost) embedding of \p pattern
/// into seq[begin..end_inclusive]; kNoPos if it does not embed.
///
/// Used by the BIDE-style closure checks (maximum periods).
Pos LatestEmbeddingStart(const Pattern& pattern, EventSpan seq,
                         Pos begin, Pos end_inclusive);

}  // namespace specmine

#endif  // SPECMINE_SEQMINE_OCCURRENCE_ENGINE_H_
