#include "src/seqmine/occurrence_engine.h"

#include <cassert>

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

size_t CountOccurrences(const HybridIndex& index, const Pattern& pattern) {
  if (pattern.empty()) return 0;
  const size_t num_events = index.num_events();
  const SequenceDatabase& db = index.db();
  const uint64_t* offsets = db.offsets();
  const EventId last = pattern.last();
  if (last >= num_events) return 0;
  size_t count = 0;
  for (SeqId s = 0; s < db.size(); ++s) {
    const size_t base = offsets[s];
    const size_t limit = offsets[s + 1];
    // Greedy earliest embedding of the prefix, one first-set-bit per
    // event; the remaining occurrences of the last event are the temporal
    // points (Definition 5.1).
    size_t from = base;
    bool embedded = true;
    for (size_t k = 0; k + 1 < pattern.size(); ++k) {
      if (pattern[k] >= num_events) {
        embedded = false;
        break;
      }
      const size_t g = index.FirstOfEventAtOrAfter(pattern[k], from, limit);
      if (g == kNoBit) {
        embedded = false;
        break;
      }
      from = g + 1;
    }
    if (!embedded) continue;
    count += index.CountOfEventInRange(last, from, limit);
  }
  return count;
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
