// PatternSet: a collection of mined patterns with their supports, plus the
// set-level queries the tests and reports need (containment, sorting,
// closed-set coverage checks).

#ifndef SPECMINE_PATTERNS_PATTERN_SET_H_
#define SPECMINE_PATTERNS_PATTERN_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/patterns/pattern.h"

namespace specmine {

/// \brief A mined pattern together with its support.
struct MinedPattern {
  Pattern pattern;
  /// Number of instances (iterative mining) or supporting sequences
  /// (sequential mining), depending on the producing miner.
  uint64_t support = 0;

  bool operator==(const MinedPattern& other) const = default;
};

/// \brief An ordered collection of mined patterns.
class PatternSet {
 public:
  PatternSet() = default;

  /// \brief Appends a mined pattern.
  void Add(Pattern p, uint64_t support);

  /// \brief Number of patterns.
  size_t size() const { return items_.size(); }
  /// \brief True iff no patterns were mined.
  bool empty() const { return items_.empty(); }
  /// \brief Item at index \p i.
  const MinedPattern& operator[](size_t i) const { return items_[i]; }
  /// \brief All items.
  const std::vector<MinedPattern>& items() const { return items_; }

  /// \brief Sorts by (descending support, lexicographic pattern) — the
  /// canonical report order. Stable across runs.
  void SortBySupport();

  /// \brief Sorts lexicographically by pattern — the canonical order for
  /// set comparisons in tests.
  void SortLexicographic();

  /// \brief Returns the support of \p p (its last one, if added twice),
  /// or 0 if absent. A linear scan, for tests and reports.
  uint64_t SupportOf(const Pattern& p) const;

  /// \brief True iff \p p is present. A linear scan.
  bool Contains(const Pattern& p) const;

  /// \brief Longest pattern (first one of maximal length); set must be
  /// non-empty.
  const MinedPattern& Longest() const;

  /// \brief Multi-line rendering using \p dict (one pattern per line).
  std::string ToString(const EventDictionary& dict) const;

 private:
  std::vector<MinedPattern> items_;
};

}  // namespace specmine

#endif  // SPECMINE_PATTERNS_PATTERN_SET_H_
