// Temporal point computation (Definition 5.1): the positions at which a
// premise "has just occurred".

#ifndef SPECMINE_RULEMINE_TEMPORAL_POINTS_H_
#define SPECMINE_RULEMINE_TEMPORAL_POINTS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/patterns/pattern.h"
#include "src/trace/sequence_database.h"

namespace specmine {

/// \brief The occurrence points of a pattern, grouped by sequence: a CSR
/// over only the sequences that hold at least one point, so its size
/// follows the premise's support, not the database.
///
/// Supporting sequence i is seq(i) (ascending) and its sorted points are
/// points(i). The rule miner fills one instance per premise scan and
/// reuses it across premises (Clear, then AddSequence per sequence).
class TemporalPointSet {
 public:
  /// \brief Total number of points.
  size_t TotalPoints() const { return points_.size(); }
  /// \brief Number of sequences with at least one point (the s-support of
  /// any rule with this premise).
  size_t SupportingSequences() const { return seqs_.size(); }

  /// \brief The i-th supporting sequence.
  SeqId seq(size_t i) const { return seqs_[i]; }
  /// \brief The sorted points of the i-th supporting sequence (non-empty).
  std::span<const Pos> points(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::span<const Pos>(points_).subspan(begin, ends_[i] - begin);
  }

  /// \brief Empties the set, keeping its capacity.
  void Clear() {
    seqs_.clear();
    ends_.clear();
    points_.clear();
  }
  /// \brief Appends sequence \p s's sorted points; \p s must exceed every
  /// sequence added since the last Clear. No-op for no points.
  void AddSequence(SeqId s, std::span<const Pos> pts) {
    if (pts.empty()) return;
    seqs_.push_back(s);
    points_.insert(points_.end(), pts.begin(), pts.end());
    ends_.push_back(points_.size());
  }

  bool operator==(const TemporalPointSet& other) const = default;

 private:
  std::vector<SeqId> seqs_;
  std::vector<size_t> ends_;  // ends_[i] = end of seq(i)'s run in points_.
  std::vector<Pos> points_;
};

/// \brief Computes the temporal points of \p pattern over \p db — the
/// reference the rule miner's incremental fill is tested against.
TemporalPointSet ComputeTemporalPoints(const Pattern& pattern,
                                       const SequenceDatabase& db);

}  // namespace specmine

#endif  // SPECMINE_RULEMINE_TEMPORAL_POINTS_H_
