// HybridIndex: the vertical physical counting representation behind the
// CountingBackend seam — per event, either a word-packed occurrence bitmap
// over the flat event arena or a sorted list of its arena positions.
//
// Motivation (BENCH_core.json, sparse corpus): a full bitmap table is
// alphabet x ceil(arena/64) words, so on a 20k-event corpus every
// rare-event row is a multi-KB, almost-empty strip and each gap-freedom
// probe is a cold cache line; CSR wins there, but still pays per-position
// binary searches. The hybrid format splits the alphabet by occurrence
// count at a cutoff:
//
//   * dense events (count >= cutoff) get word-packed bitmap rows (layout in
//     bitmap_index.h) — the events whose rows the union build and the
//     popcount tails actually profit from;
//   * rare events keep sorted global-position ID lists (uint32, valid by
//     the CheckIndexable contract), compact enough that the whole sparse
//     side stays cache-resident; point queries gallop via binary search
//     and union rows get their bits scattered individually.
//
// Either way the query interface speaks global bit positions, so the
// vertical projection queries (vertical_projection_impl.h) run unchanged
// and byte-identical on top of any cutoff.
//
// The cutoff picks the backend: the tuned AutoDenseCutoff is the "hybrid"
// backend, whose memory is bounded by the corpus (32 bytes per occurrence
// worst case), never alphabet x arena. kBitmapDenseCutoff (1) stores every
// event that occurs as a row — the "bitmap" backend — so its table is
// alphabet x arena bits and the explicit-bitmap cap (CheckBitmapIndexable)
// must pass before it is built.

#ifndef SPECMINE_ITERMINE_HYBRID_INDEX_H_
#define SPECMINE_ITERMINE_HYBRID_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/itermine/bitmap_index.h"
#include "src/trace/sequence_database.h"

namespace specmine {

/// \brief Sparse/dense per-event occurrence index over the event arena.
///
/// Built once per database in O(total events); immutable afterwards. The
/// database must outlive the index.
class HybridIndex {
 public:
  /// \brief Builds the index; \p dense_cutoff of 0 uses AutoDenseCutoff.
  explicit HybridIndex(const SequenceDatabase& db, uint64_t dense_cutoff = 0);

  /// \brief The tuned default cutoff: an event keeps its sorted ID list
  /// while the list (4 bytes/occurrence) is under 1/8 of a bitmap row's
  /// footprint, with a floor of 16 so short-arena corpora still split.
  static uint64_t AutoDenseCutoff(const SequenceDatabase& db) {
    const uint64_t words = (db.TotalEvents() + 63) / 64;
    return words / 4 > 16 ? words / 4 : 16;
  }

  /// \brief The indexed database.
  const SequenceDatabase& db() const { return *db_; }

  /// \brief Number of distinct events the index knows about.
  size_t num_events() const { return num_events_; }

  /// \brief Words per dense row: ceil(TotalEvents / 64).
  size_t words_per_row() const { return words_; }

  /// \brief The cutoff in force (resolved AutoDenseCutoff when built
  /// with 0).
  uint64_t dense_cutoff() const { return dense_cutoff_; }

  /// \brief True iff \p ev is stored as a bitmap row.
  bool is_dense(EventId ev) const { return row_index_[ev] != kNoRow; }

  /// \brief Number of events stored as bitmap rows.
  size_t num_dense_events() const { return num_dense_; }

  /// \brief Total occurrences of \p ev across the database.
  uint64_t TotalCount(EventId ev) const {
    return ev < total_counts_.size() ? total_counts_[ev] : 0;
  }

  /// \brief Number of sequences containing \p ev at least once.
  size_t SequenceCount(EventId ev) const {
    return ev < sequence_counts_.size() ? sequence_counts_[ev] : 0;
  }

  /// \brief Bytes held by the dense rows plus the sparse position lists.
  size_t table_bytes() const {
    return bits_.size() * sizeof(uint64_t) +
           positions_.size() * sizeof(uint32_t);
  }

  // -------------------------------------------------------------------------
  // The query interface of the vertical projection queries (see
  // vertical_projection_impl.h): the global-bit contracts of the bitrow
  // primitives, dispatched on the event's representation.

  /// \brief First occurrence of \p ev in global bits [from, limit), or
  /// kNoBit; ev must be < num_events().
  size_t FirstOfEventAtOrAfter(EventId ev, size_t from, size_t limit) const {
    const uint32_t r = row_index_[ev];
    if (r != kNoRow) {
      return bitrow::FirstSetAtOrAfter(dense_row(r), from, limit);
    }
    if (from >= limit) return kNoBit;
    const uint32_t* begin = positions_.data() + sparse_offsets_[ev];
    const uint32_t* end = positions_.data() + sparse_offsets_[ev + 1];
    const uint32_t* it =
        std::lower_bound(begin, end, static_cast<uint32_t>(from));
    return it != end && *it < limit ? *it : kNoBit;
  }

  /// \brief True iff \p ev occurs in global bits [from, limit).
  bool AnyOfEventInRange(EventId ev, size_t from, size_t limit) const {
    const uint32_t r = row_index_[ev];
    if (r != kNoRow) return bitrow::AnyInRange(dense_row(r), from, limit);
    if (from >= limit) return false;
    const uint32_t* begin = positions_.data() + sparse_offsets_[ev];
    const uint32_t* end = positions_.data() + sparse_offsets_[ev + 1];
    const uint32_t* it =
        std::lower_bound(begin, end, static_cast<uint32_t>(from));
    return it != end && *it < limit;
  }

  /// \brief Occurrences of \p ev in global bits [from, limit).
  size_t CountOfEventInRange(EventId ev, size_t from, size_t limit) const {
    const uint32_t r = row_index_[ev];
    if (r != kNoRow) return bitrow::CountInRange(dense_row(r), from, limit);
    if (from >= limit) return 0;
    const uint32_t* begin = positions_.data() + sparse_offsets_[ev];
    const uint32_t* end = positions_.data() + sparse_offsets_[ev + 1];
    return static_cast<size_t>(
        std::lower_bound(begin, end, static_cast<uint32_t>(limit)) -
        std::lower_bound(begin, end, static_cast<uint32_t>(from)));
  }

  /// \brief Sorted global positions of a sparse event (empty range for
  /// dense events — their occurrences live in the bitmap row instead).
  const uint32_t* sparse_begin(EventId ev) const {
    return positions_.data() + sparse_offsets_[ev];
  }
  const uint32_t* sparse_end(EventId ev) const {
    return positions_.data() + sparse_offsets_[ev + 1];
  }

  /// \brief ORs the \p alphabet events' occurrences into *union_words
  /// (resized to words_per_row() on growth) over the word range covering
  /// global bits [base, limit): dense alphabet rows are OR-ed word-wise,
  /// rare alphabet events scatter their few in-range positions as
  /// individual bits. Only that word range is written; queries must mask
  /// to it (shared boundary words carry neighbor-sequence bits).
  void BuildUnionForRange(const std::vector<EventId>& alphabet, size_t base,
                          size_t limit,
                          std::vector<uint64_t>* union_words) const {
    if (union_words->size() < words_) union_words->resize(words_, 0);
    if (base >= limit) return;
    const size_t wb = base >> 6;
    const size_t we = ((limit - 1) >> 6) + 1;
    uint64_t* out = union_words->data();
    // Dense alphabet rows through bitrow::UnionRows (overwrites the range —
    // n == 0 zeroes it, which is what the sparse scatter needs). Patterns
    // are short, so a fixed stack chunk covers every real alphabet; this
    // stays inline because the recount loops call it once per sequence.
    const uint64_t* rows[kUnionChunk];
    size_t n = 0;
    bool rest = false;  // Sparse events or dense rows beyond the chunk.
    for (EventId ev : alphabet) {
      const uint32_t r = row_index_[ev];
      if (r != kNoRow && n < kUnionChunk) {
        rows[n++] = dense_row(r);
      } else {
        rest = true;
      }
    }
    bitrow::UnionRows(rows, n, wb, we, out);
    if (rest) UnionRest(alphabet, base, limit, out);
  }

 private:
  static constexpr uint32_t kNoRow = ~uint32_t{0};
  static constexpr size_t kUnionChunk = 16;

  // The cold tail of BuildUnionForRange: ORs the dense rows beyond the
  // stack chunk word-wise and scatters the sparse events' in-range
  // positions as individual bits.
  void UnionRest(const std::vector<EventId>& alphabet, size_t base,
                 size_t limit, uint64_t* out) const;

  const uint64_t* dense_row(uint32_t row) const {
    return bits_.data() + static_cast<size_t>(row) * words_;
  }

  const SequenceDatabase* db_;
  size_t num_events_ = 0;
  size_t words_ = 0;
  uint64_t dense_cutoff_ = 0;
  size_t num_dense_ = 0;
  std::vector<uint32_t> row_index_;      // Per event: dense row or kNoRow.
  std::vector<uint64_t> bits_;           // num_dense_ x words_, row-major.
  std::vector<size_t> sparse_offsets_;   // num_events_+1; dense rows empty.
  std::vector<uint32_t> positions_;      // Sparse events' global positions.
  std::vector<uint64_t> total_counts_;
  std::vector<size_t> sequence_counts_;
};

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_HYBRID_INDEX_H_
