// Iterative pattern instances (Definition 4.1 of the paper).
//
// An instance of pattern P = <p1 ... pn> is a *substring* of a database
// sequence matching the quantified regular expression
//
//     p1 ; [-p1,...,pn]* ; p2 ; ... ; [-p1,...,pn]* ; pn
//
// i.e. it starts with p1, ends with pn, and between consecutive pattern
// events contains no event of the pattern's alphabet. Two facts shape the
// whole module (proofs in the doc comments of projection.h):
//
//  * From a fixed start position the instance, if it exists, is unique:
//    each next pattern event must be the *first* alphabet event after the
//    previous one. Instances are therefore keyed by (sequence, start).
//  * Instances of an extension P++evs / evs++P restrict to instances of P
//    injectively, giving the apriori property (Theorem 1).

#ifndef SPECMINE_ITERMINE_INSTANCE_H_
#define SPECMINE_ITERMINE_INSTANCE_H_

#include <string>
#include <vector>

#include "src/trace/sequence_database.h"

namespace specmine {

/// \brief One instance of an iterative pattern: the substring
/// seq[start..end] (inclusive bounds).
struct IterInstance {
  SeqId seq = 0;
  Pos start = 0;
  Pos end = 0;

  bool operator==(const IterInstance& other) const = default;
  /// \brief Order by (seq, start, end) — canonical listing order.
  bool operator<(const IterInstance& other) const {
    if (seq != other.seq) return seq < other.seq;
    if (start != other.start) return start < other.start;
    return end < other.end;
  }

  /// \brief "(seq, start, end)" rendering for diagnostics.
  std::string ToString() const;
};

/// \brief All instances of a pattern, sorted by (seq, start).
using InstanceList = std::vector<IterInstance>;

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_INSTANCE_H_
