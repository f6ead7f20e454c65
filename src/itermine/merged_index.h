// MergedCountingIndex: the lazy merged backend — a CountingBackend
// implementation that answers merged-view queries directly over the
// per-shard indexes, so Engine::FromShardSet sessions never materialize
// ShardedDatabase::Merge() (the largest RAM cliff on big corpora; this is
// the future-work slot engine.h used to name).
//
// Why per-shard delegation is exact: the merged database is the
// concatenation of the healthy shards in manifest order, every sequence
// lives wholly inside one shard, and every projection/counting query of
// the mining engine is sequence-local. A merged query therefore
// decomposes into runs of shard-local queries:
//
//   * merged SeqId  = shard sequence base + local SeqId (seq_base),
//   * merged EventId <-> shard-local EventId through the manifest remap
//     tables (to_local is the inverted remap; an event absent from a
//     shard's alphabet simply contributes nothing there),
//   * per-event totals are sums of per-shard totals (precomputed once),
//   * instance lists translate by offsetting SeqIds — scan order within a
//     shard is merged scan order, and shard order is merged order.
//
// Every result is byte-identical to the same query over the eagerly
// merged database — pinned by the lazy-merged arm of
// tests/backend_equivalence_test.cc, including quarantined-shard sets
// (where "merged" means the healthy subset, exactly like Merge()).
//
// The index borrows the ShardedDatabase and the per-shard backends (the
// Engine's cached shard indexes); both must outlive it. Memory cost is
// the remap inversions plus merged count tables — O(shards x alphabet),
// independent of the arena size that Merge() would copy.

#ifndef SPECMINE_ITERMINE_MERGED_INDEX_H_
#define SPECMINE_ITERMINE_MERGED_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/itermine/counting_backend.h"
#include "src/itermine/projection.h"
#include "src/trace/shard_set.h"

namespace specmine {

/// \brief Merged-view counting index over per-shard backends.
class MergedCountingIndex {
 public:
  /// \brief Wraps \p set with one counting backend per (healthy) shard,
  /// in shard order. Precomputes the remap inversions and the merged
  /// per-event count tables in O(shards x merged alphabet).
  MergedCountingIndex(const ShardedDatabase& set,
                      std::vector<CountingBackend> shard_backends);

  /// \brief The underlying shard set.
  const ShardedDatabase& shard_set() const { return *set_; }

  /// \brief Number of wrapped shards.
  size_t num_shards() const { return shards_.size(); }

  /// \brief Shard \p i's counting backend (shard-local event ids).
  const CountingBackend& shard_backend(size_t i) const { return shards_[i]; }

  /// \brief First merged SeqId of shard \p i (i == num_shards() gives the
  /// total sequence count).
  SeqId seq_base(size_t i) const { return seq_base_[i]; }

  /// \brief The shard containing merged sequence \p seq.
  size_t ShardOfSequence(SeqId seq) const {
    size_t lo = 0, hi = seq_base_.size() - 1;
    while (lo + 1 < hi) {
      const size_t mid = (lo + hi) / 2;
      if (seq_base_[mid] <= seq) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// \brief Shard \p shard's local id for merged event \p ev, or
  /// kInvalidEvent when the event is outside that shard's alphabet.
  EventId ToLocal(size_t shard, EventId ev) const {
    return ev < to_local_[shard].size() ? to_local_[shard][ev]
                                        : kInvalidEvent;
  }

  /// \brief Size of the merged dictionary.
  size_t num_events() const { return num_events_; }

  /// \brief Total occurrences of merged event \p ev across all shards.
  uint64_t TotalCount(EventId ev) const {
    return ev < total_counts_.size() ? total_counts_[ev] : 0;
  }

  /// \brief Sequences containing merged event \p ev, across all shards.
  size_t SequenceCount(EventId ev) const {
    return ev < sequence_counts_.size() ? sequence_counts_[ev] : 0;
  }

  /// \brief True iff \p ev occurs in merged sequence \p seq within
  /// [lo, hi] inclusive (delegates into the owning shard).
  bool AnyInRange(EventId ev, SeqId seq, Pos lo, Pos hi) const;

  /// \brief Bytes held by the merged-view tables (remap inversions +
  /// count tables) — what the lazy backend costs instead of Merge().
  size_t table_bytes() const;

 private:
  const ShardedDatabase* set_;
  std::vector<CountingBackend> shards_;
  std::vector<SeqId> seq_base_;               // num_shards + 1.
  std::vector<std::vector<EventId>> to_local_;  // Per shard: merged->local.
  size_t num_events_ = 0;
  std::vector<uint64_t> total_counts_;
  std::vector<size_t> sequence_counts_;
};

// ---------------------------------------------------------------------------
// The kMerged arms of the CountingBackend dispatch (projection.cc,
// qre_verifier.cc, occurrence_engine.cc). Contracts and output order are
// identical to the other backends'.

/// \brief Merged arm of SingleEventInstances.
InstanceList SingleEventInstancesMerged(const MergedCountingIndex& index,
                                        EventId ev);

/// \brief Merged arm of ForwardExtensions.
void ForwardExtensionsMerged(const MergedCountingIndex& index,
                             const Pattern& pattern,
                             const InstanceList& instances,
                             ProjectionWorkspace* ws,
                             ForwardExtensionMap* out);

/// \brief Merged arm of BackwardExtensions; the returned reference lives
/// in \p ws like the other arms'.
const BackwardExtensionMap& BackwardExtensionsMerged(
    const MergedCountingIndex& index, const Pattern& pattern,
    const InstanceList& instances, ProjectionWorkspace* ws);

/// \brief Merged arm of the QRE recount: per-shard exact counts, summed.
uint64_t CountInstancesMerged(const MergedCountingIndex& index,
                              const Pattern& pattern,
                              QreRecountScratch* scratch);

/// \brief Merged arm of CountOccurrences (temporal points), summed.
size_t CountOccurrencesMerged(const MergedCountingIndex& index,
                              const Pattern& pattern);

/// \brief Merged arm of HasUniformInfixAbsorber: the per-gap profile
/// intersection over shard-local arenas, keyed by merged event ids.
bool HasUniformInfixAbsorberMerged(const MergedCountingIndex& index,
                                   const Pattern& pattern,
                                   const InstanceList& instances,
                                   ProjectionWorkspace* ws);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_MERGED_INDEX_H_
