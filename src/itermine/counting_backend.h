// CountingBackend: the physical-representation seam between the miners
// and their counting structure. One handle wraps the horizontal CSR
// PositionIndex, the vertical HybridIndex (the "bitmap" backend is a
// HybridIndex at kBitmapDenseCutoff, the "hybrid" backend one at its tuned
// cutoff); the projection engine, the QRE recount, and the occurrence
// counters dispatch on kind() once per query (never per position), so the
// CSR paths compile to exactly the pre-seam code and stay byte-identical.
//
// A CountingBackend is a tagged pointer — copy it by value. The wrapped
// index (and its database) must outlive every copy. A sharded session
// wraps the index over its materialized merged arena, so every handle has
// a database behind it.

#ifndef SPECMINE_ITERMINE_COUNTING_BACKEND_H_
#define SPECMINE_ITERMINE_COUNTING_BACKEND_H_

#include <cassert>
#include <cstdint>

#include "src/itermine/bitmap_index.h"
#include "src/itermine/hybrid_index.h"
#include "src/trace/position_index.h"

namespace specmine {

/// \brief A borrowed handle to one physical counting representation.
class CountingBackend {
 public:
  /// \brief Wraps the CSR position index (the default representation).
  explicit CountingBackend(const PositionIndex& csr)
      : kind_(BackendKind::kCsr), csr_(&csr) {}

  /// \brief Wraps the vertical index; kind() is kHybrid whatever its
  /// cutoff, so "bitmap" and "hybrid" share every dispatch arm.
  explicit CountingBackend(const HybridIndex& hybrid)
      : kind_(BackendKind::kHybrid), hybrid_(&hybrid) {}

  /// \brief Which index type this handle wraps: the dispatch tag.
  BackendKind kind() const { return kind_; }

  /// \brief Short name for reports ("csr" / "bitmap" / "hybrid"); a
  /// HybridIndex at kBitmapDenseCutoff reports "bitmap".
  const char* name() const {
    if (kind_ == BackendKind::kHybrid &&
        hybrid_->dense_cutoff() == kBitmapDenseCutoff) {
      return BackendKindName(BackendKind::kBitmap);
    }
    return BackendKindName(kind_);
  }

  /// \brief The wrapped CSR index; kind() must be kCsr.
  const PositionIndex& csr() const {
    assert(csr_ != nullptr);
    return *csr_;
  }

  /// \brief The wrapped hybrid index; kind() must be kHybrid.
  const HybridIndex& hybrid() const {
    assert(hybrid_ != nullptr);
    return *hybrid_;
  }

  /// \brief The indexed database.
  const SequenceDatabase& db() const {
    return kind_ == BackendKind::kHybrid ? hybrid_->db() : csr_->db();
  }

  /// \brief Number of distinct events the backend knows about.
  size_t num_events() const {
    switch (kind_) {
      case BackendKind::kHybrid:
        return hybrid_->num_events();
      default:
        return csr_->num_events();
    }
  }

  /// \brief Total occurrences of \p ev across the database.
  uint64_t TotalCount(EventId ev) const {
    switch (kind_) {
      case BackendKind::kHybrid:
        return hybrid_->TotalCount(ev);
      default:
        return csr_->TotalCount(ev);
    }
  }

  /// \brief Number of sequences containing \p ev at least once.
  size_t SequenceCount(EventId ev) const {
    switch (kind_) {
      case BackendKind::kHybrid:
        return hybrid_->SequenceCount(ev);
      default:
        return csr_->SequenceCount(ev);
    }
  }

  /// \brief True iff \p ev occurs in sequence \p seq within [lo, hi]
  /// inclusive — the gap-freedom / insertion-window test. Returns false
  /// when lo > hi.
  bool AnyInRange(EventId ev, SeqId seq, Pos lo, Pos hi) const {
    if (lo > hi) return false;
    switch (kind_) {
      case BackendKind::kHybrid: {
        if (ev >= hybrid_->num_events()) return false;
        const uint64_t* offsets = hybrid_->db().offsets();
        const size_t base = offsets[seq];
        size_t limit = base + hi + 1;
        if (limit > offsets[seq + 1]) limit = offsets[seq + 1];
        return hybrid_->AnyOfEventInRange(ev, base + lo, limit);
      }
      default:
        return csr_->CountInRange(ev, seq, lo, hi) > 0;
    }
  }

 private:
  BackendKind kind_;
  const PositionIndex* csr_ = nullptr;
  const HybridIndex* hybrid_ = nullptr;
};

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_COUNTING_BACKEND_H_
