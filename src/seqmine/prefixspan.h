// PrefixSpan (Pei et al., ICDE 2001): full-set sequential pattern mining by
// prefix-projected pattern growth, over a database of *units*.
//
// A unit is a (sequence, start offset) pair denoting the suffix
// seq[start..]. With one unit per sequence at offset 0 this is classic
// sequential pattern mining with sequence-count support; the recurrent-rule
// miner instead builds one unit per temporal point to mine consequents with
// confidence-derived support (paper Section 5, Step 3).

#ifndef SPECMINE_SEQMINE_PREFIXSPAN_H_
#define SPECMINE_SEQMINE_PREFIXSPAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/patterns/pattern_set.h"
#include "src/support/event_marks.h"
#include "src/support/extension_accumulator.h"
#include "src/support/status.h"
#include "src/trace/sequence_database.h"

namespace specmine {

class CancelToken;

/// \brief A suffix view seq[start..] of one database sequence.
struct Unit {
  SeqId seq = 0;
  Pos start = 0;
};

/// \brief The projection units a sequential miner runs over.
///
/// The referenced database must outlive the UnitDatabase.
class UnitDatabase {
 public:
  /// \brief One unit per sequence, at offset 0 (classic sequence support).
  static UnitDatabase WholeSequences(const SequenceDatabase& db);

  /// \brief Explicit unit list (e.g. one unit per temporal point).
  UnitDatabase(const SequenceDatabase& db, std::vector<Unit> units)
      : db_(&db), units_(std::move(units)) {}

  const SequenceDatabase& db() const { return *db_; }
  const std::vector<Unit>& units() const { return units_; }
  size_t size() const { return units_.size(); }

 private:
  const SequenceDatabase* db_;
  std::vector<Unit> units_;
};

/// \brief Options shared by the sequential miners.
struct SeqMinerOptions {
  /// Minimum number of supporting units (absolute).
  uint64_t min_support = 1;
  /// Maximum pattern length; 0 means unbounded.
  size_t max_length = 0;
  /// Safety valve: stop after emitting this many patterns (0 = unbounded).
  /// Full-set miners can explode at low thresholds; the benchmark harness
  /// sets a generous cap and reports when it is hit.
  size_t max_patterns = 0;
  /// Optional cooperative stop signal, polled at subtree granularity. A
  /// stopped run's output is a prefix of the full deterministic emission
  /// order; the reason lands in SeqMinerStats::stopped. Not owned.
  const CancelToken* cancel = nullptr;
};

/// \brief Statistics describing one miner run.
struct SeqMinerStats {
  size_t nodes_visited = 0;    ///< DFS nodes expanded.
  size_t patterns_emitted = 0; ///< Patterns written to the output set.
  bool truncated = false;      ///< True iff max_patterns stopped the run.
  /// kCancelled / kDeadlineExceeded when a CancelToken stopped the run.
  StatusCode stopped = StatusCode::kOk;
};

/// \brief One live unit of a sequential projection: the unit index and the
/// absolute position of the pattern's last matched event in its sequence
/// (unused at the root, where matching starts at the unit's start).
struct SeqEntry {
  uint32_t unit;
  Pos last_match;
};

/// \brief The one-event extensions of a projection, ascending event id.
using SeqExtensionMap = ExtensionAccumulator<SeqEntry>::Map;

/// \brief Reusable scratch for the sequential miners (PrefixSpan and the
/// BIDE-style closed miner): extension buckets and their map pool, the
/// per-event count slots, the closed miner's embedding rows and the sink's
/// supporting-unit buffer. Alphabet-sized after the first run and kept
/// warm across runs, so a caller that mines many unit databases (the rule
/// miners: one per premise) allocates nothing in steady state.
///
/// One run at a time: the sink's supporting-unit argument lives here, so
/// mining nested inside a sink (the rule miners' consequents inside the
/// premise scan) takes a second workspace.
struct SequentialWorkspace {
  /// Distinct-unit count of one event over a projection's suffixes.
  struct Tally {
    uint32_t last_entry;  ///< 1 + index of the last entry that counted.
    uint32_t units;
  };

  ExtensionAccumulator<SeqEntry> acc;
  EpochSlots<Tally> tally;              // Frequent-only collection.
  EpochSlots<uint32_t> period_counts;   // Closed miner's period events.
  std::vector<Pos> ee;                  // Earliest embeddings, n per unit.
  std::vector<Pos> ls;                  // Latest embeddings, n per unit.
  std::vector<SeqEntry> root;           // The root projection.
  std::vector<uint32_t> supporting;     // Reused sink argument buffer.
};

/// \brief Groups, for every event e whose extension reaches
/// \p min_support units, the projected entries of P++<e>: one entry per
/// unit, at the first occurrence of e in the unit's remaining suffix.
/// Infrequent extensions are counted (in \p ws->tally) but never
/// materialized. \p out (from ws->acc.AcquireMap()) iterates in ascending
/// event id.
void CollectFrequentExtensions(const UnitDatabase& units,
                               const std::vector<SeqEntry>& entries,
                               bool at_root, uint64_t min_support,
                               SequentialWorkspace* ws, SeqExtensionMap* out);

/// \brief Mines the full set of frequent sequential patterns over \p units.
///
/// Support of P = number of units whose suffix contains P as a subsequence.
/// \p sink is invoked for every pattern of length >= 1, in DFS preorder
/// with ascending event-id children, with (pattern, support,
/// supporting-unit indexes). Return false from the sink to skip growing
/// that pattern's subtree (confidence-style pruning); callers that want a
/// PatternSet collect into one and return true.
///
/// \p ws is optional reusable scratch; null means a local workspace.
void ScanFrequentSequential(
    const UnitDatabase& units, const SeqMinerOptions& options,
    const std::function<bool(const Pattern&, uint64_t,
                             const std::vector<uint32_t>&)>& sink,
    SeqMinerStats* stats = nullptr, SequentialWorkspace* ws = nullptr);

}  // namespace specmine

#endif  // SPECMINE_SEQMINE_PREFIXSPAN_H_
