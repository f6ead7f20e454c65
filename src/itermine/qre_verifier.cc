#include "src/itermine/qre_verifier.h"

#include <unordered_set>

namespace specmine {

bool IsQreInstance(const Pattern& pattern, EventSpan seq, Pos start,
                   Pos end) {
  if (pattern.empty()) return false;
  if (end >= seq.size() || start > end) return false;
  const auto alphabet = pattern.Alphabet();
  size_t k = 0;
  for (Pos p = start; p <= end; ++p) {
    EventId ev = seq[p];
    if (alphabet.count(ev) != 0) {
      // Every alphabet event inside the substring must be the next pattern
      // event, in order.
      if (k >= pattern.size() || ev != pattern[k]) return false;
      ++k;
    }
  }
  // All pattern events consumed, and the substring must start with p1 and
  // end with pn (positions, not just order).
  return k == pattern.size() && seq[start] == pattern[0] &&
         seq[end] == pattern[pattern.size() - 1];
}

InstanceList FindInstances(const Pattern& pattern, EventSpan seq,
                           SeqId seq_id) {
  InstanceList out;
  if (pattern.empty()) return out;
  const auto alphabet = pattern.Alphabet();
  for (Pos start = 0; start < seq.size(); ++start) {
    if (seq[start] != pattern[0]) continue;
    // Deterministic chain: each subsequent pattern event must be the first
    // alphabet event after the previous one; any other alphabet event
    // breaks the chain.
    size_t k = 1;
    Pos last = start;
    bool broken = false;
    for (Pos p = start + 1; p < seq.size() && k < pattern.size(); ++p) {
      EventId ev = seq[p];
      if (alphabet.count(ev) == 0) continue;
      if (ev != pattern[k]) {
        broken = true;
        break;
      }
      ++k;
      last = p;
    }
    if (!broken && k == pattern.size()) {
      out.push_back(IterInstance{seq_id, start, last});
    }
  }
  return out;
}

InstanceList FindAllInstances(const Pattern& pattern,
                              const SequenceDatabase& db) {
  InstanceList out;
  for (SeqId s = 0; s < db.size(); ++s) {
    InstanceList one = FindInstances(pattern, db[s], s);
    out.insert(out.end(), one.begin(), one.end());
  }
  return out;
}

uint64_t CountInstances(const Pattern& pattern, const SequenceDatabase& db) {
  return FindAllInstances(pattern, db).size();
}

}  // namespace specmine
