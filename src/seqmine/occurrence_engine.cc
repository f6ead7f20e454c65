#include "src/seqmine/occurrence_engine.h"

#include <cassert>

#include "src/itermine/vertical_projection_impl.h"

namespace specmine {

Pos EarliestEmbeddingEnd(const Pattern& pattern, EventSpan seq,
                         Pos begin) {
  assert(!pattern.empty());
  size_t k = 0;
  for (Pos p = begin; p < seq.size(); ++p) {
    if (seq[p] == pattern[k]) {
      ++k;
      if (k == pattern.size()) return p;
    }
  }
  return kNoPos;
}

bool EmbedsAt(const Pattern& pattern, EventSpan seq, Pos begin) {
  if (pattern.empty()) return true;
  return EarliestEmbeddingEnd(pattern, seq, begin) != kNoPos;
}

std::vector<Pos> OccurrencePoints(const Pattern& pattern, EventSpan seq,
                                  Pos begin) {
  std::vector<Pos> points;
  if (pattern.empty()) return points;
  const EventId last = pattern.last();
  Pos from = begin;
  if (pattern.size() > 1) {
    // Earliest embedding of the prefix (all events but the last), matched
    // in place against pattern.events() — no temporary Pattern.
    const std::vector<EventId>& events = pattern.events();
    const size_t prefix_len = events.size() - 1;
    size_t k = 0;
    Pos prefix_end = kNoPos;
    for (Pos p = begin; p < seq.size(); ++p) {
      if (seq[p] == events[k]) {
        ++k;
        if (k == prefix_len) {
          prefix_end = p;
          break;
        }
      }
    }
    if (prefix_end == kNoPos) return points;
    from = prefix_end + 1;
  }
  for (Pos p = from; p < seq.size(); ++p) {
    if (seq[p] == last) points.push_back(p);
  }
  return points;
}

size_t CountOccurrences(const Pattern& pattern, const SequenceDatabase& db) {
  size_t n = 0;
  for (EventSpan seq : db) {
    n += OccurrencePoints(pattern, seq).size();
  }
  return n;
}

size_t CountOccurrences(const CountingBackend& backend,
                        const Pattern& pattern) {
  switch (backend.kind()) {
    case BackendKind::kHybrid:
      return internal::CountOccurrencesVertical(backend.hybrid(), pattern);
    default:
      return CountOccurrences(pattern, backend.db());
  }
}

Pos LatestEmbeddingStart(const Pattern& pattern, EventSpan seq,
                         Pos begin, Pos end_inclusive) {
  assert(!pattern.empty());
  if (end_inclusive == kNoPos || begin >= seq.size()) return kNoPos;
  if (end_inclusive >= seq.size()) end_inclusive = static_cast<Pos>(seq.size()) - 1;
  size_t k = pattern.size();
  for (Pos p = end_inclusive + 1; p-- > begin;) {
    if (seq[p] == pattern[k - 1]) {
      --k;
      if (k == 0) return p;
    }
    if (p == 0) break;
  }
  return kNoPos;
}

}  // namespace specmine
