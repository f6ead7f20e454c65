// MINEPI-style serial episode mining via minimal occurrences (Mannila,
// Toivonen & Verkamo, DMKD 1997).
//
// A minimal occurrence of an episode is a window [s, e] in which the
// episode occurs while no proper sub-window of it contains the episode.
// Support = number of minimal occurrences with width <= max_window, summed
// over the database. Minimal occurrences of an extension are computed from
// the parent's minimal occurrences, which is what made MINEPI incremental;
// the same recurrence is used here.

#ifndef SPECMINE_EPISODE_MINEPI_H_
#define SPECMINE_EPISODE_MINEPI_H_

#include <cstdint>

#include "src/patterns/pattern_set.h"
#include "src/trace/sequence_database.h"

namespace specmine {

class CancelToken;

/// \brief One minimal occurrence window [start, end] in a sequence.
struct MinimalOccurrence {
  SeqId seq = 0;
  Pos start = 0;
  Pos end = 0;

  bool operator==(const MinimalOccurrence& other) const = default;
};

/// \brief Options for MINEPI mining.
struct MinepiOptions {
  /// Maximal window width (end - start + 1) of a counted occurrence.
  size_t max_window = 10;
  /// Minimum number of minimal occurrences (absolute).
  uint64_t min_support = 1;
  /// Maximum episode length; 0 means unbounded.
  size_t max_length = 0;
  /// Optional cooperative stop signal, polled per episode candidate. Not
  /// owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// \brief All minimal occurrences of \p episode in \p db (any width).
std::vector<MinimalOccurrence> FindMinimalOccurrences(
    const Pattern& episode, const SequenceDatabase& db);

/// \brief Mines all episodes whose bounded-width minimal occurrence count
/// meets the threshold.
PatternSet MineMinepi(const SequenceDatabase& db, const MinepiOptions& options);

}  // namespace specmine

#endif  // SPECMINE_EPISODE_MINEPI_H_
