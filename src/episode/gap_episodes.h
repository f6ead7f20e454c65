// Gap-constrained episode mining in the spirit of Casas-Garriga (PKDD
// 2003): the fixed window of WINEPI is replaced by a maximum gap between
// one event of the episode and the next.
//
// An occurrence is a chain of positions i1 < i2 < ... < ik with
// i_{j+1} - i_j <= max_gap. Support counts leftmost-greedy non-overlapping
// occurrences per sequence, summed over the database — the natural
// "repetitions within and across sequences" analogue, making this the
// closest episode-style baseline to iterative pattern mining.

#ifndef SPECMINE_EPISODE_GAP_EPISODES_H_
#define SPECMINE_EPISODE_GAP_EPISODES_H_

#include <cstdint>

#include "src/patterns/pattern_set.h"
#include "src/trace/sequence_database.h"

namespace specmine {

/// \brief Options for gap-constrained episode mining.
struct GapEpisodeOptions {
  /// Maximum allowed gap i_{j+1} - i_j between consecutive episode events.
  size_t max_gap = 5;
  /// Minimum number of occurrences (absolute).
  uint64_t min_support = 1;
  /// Maximum episode length; 0 means unbounded.
  size_t max_length = 0;
};

/// \brief Counts leftmost-greedy non-overlapping gap-constrained
/// occurrences of \p episode in \p db.
uint64_t CountGapOccurrences(const Pattern& episode, const SequenceDatabase& db,
                             size_t max_gap);

/// \brief Mines all episodes whose gap-constrained occurrence count meets
/// the threshold (support is anti-monotone under this counting, enabling
/// apriori growth).
PatternSet MineGapEpisodes(const SequenceDatabase& db,
                           const GapEpisodeOptions& options);

}  // namespace specmine

#endif  // SPECMINE_EPISODE_GAP_EPISODES_H_
