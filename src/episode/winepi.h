// WINEPI-style serial episode mining (Mannila, Toivonen & Verkamo, DMKD
// 1997) — a related-work baseline for iterative pattern mining.
//
// An episode is a series of events; it occurs in a window of width `w` iff
// it is a subsequence of the events inside the window. The frequency of an
// episode is the number of width-w windows containing it, summed over all
// sequences (the original formulation uses one long sequence; we slide the
// window over each sequence independently and sum). Window counts are
// anti-monotone under extension, enabling depth-first apriori growth.
//
// The key contrast the paper draws (Sections 1-2): episode occurrences are
// confined to a window, so constraints whose events lie arbitrarily far
// apart (lock/unlock, open/close) are invisible to episode mining — the
// benchmark bench/ablation_prunes demonstrates exactly that.

#ifndef SPECMINE_EPISODE_WINEPI_H_
#define SPECMINE_EPISODE_WINEPI_H_

#include <cstdint>

#include "src/patterns/pattern_set.h"
#include "src/trace/sequence_database.h"

namespace specmine {

class CancelToken;

/// \brief Options for WINEPI mining.
struct WinepiOptions {
  /// Window width in events (>= 1).
  size_t window_width = 10;
  /// Minimum number of windows containing the episode (absolute).
  uint64_t min_window_count = 1;
  /// Maximum episode length; 0 means unbounded.
  size_t max_length = 0;
  /// Optional cooperative stop signal, polled per episode candidate. Not
  /// owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// \brief Number of width-w windows of \p db containing \p episode.
///
/// Windows are [t, t+w) for t in [-(w-1), len-1] per sequence, as in the
/// original definition (partial windows at both ends).
uint64_t CountSupportingWindows(const Pattern& episode,
                                const SequenceDatabase& db, size_t width);

/// \brief Mines all frequent serial episodes under the window-count
/// frequency.
PatternSet MineWinepi(const SequenceDatabase& db, const WinepiOptions& options);

}  // namespace specmine

#endif  // SPECMINE_EPISODE_WINEPI_H_
