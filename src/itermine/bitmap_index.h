// Backend selection for the iterative-pattern miners, plus the word
// primitives of the vertical (SPAM-style) bitmap layout.
//
// Layout: bit g of an event's row is set iff arena[g] is that event. Bit
// positions ARE arena positions, so the CSR sequence boundaries of
// SequenceDatabase (offsets[s]..offsets[s+1]) delimit sequence s's bits
// directly — no per-sequence padding; shared boundary words are handled by
// the range masks of the primitives below. The projection queries become
// word-wise ops: "first alphabet(P) event after position p" is a
// find-first-set over an OR of alphabet rows, and occurrence counts are
// popcounts.
//
// The one vertical index is HybridIndex (hybrid_index.h). The "bitmap"
// backend is that index built at kBitmapDenseCutoff, where every event that
// occurs gets a full-width row: alphabet x ceil(total_events / 64) words.
// That table is dense in the alphabet, which is exactly the regime the
// adaptive chooser (ChooseBackendKind) gates on: small alphabets with
// frequent events pay off; sparse huge-alphabet corpora go to the hybrid
// split at its tuned cutoff or stay on the CSR index.

#ifndef SPECMINE_ITERMINE_BITMAP_INDEX_H_
#define SPECMINE_ITERMINE_BITMAP_INDEX_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>

#include "src/support/status.h"
#include "src/trace/sequence_database.h"

namespace specmine {

/// \brief Sentinel for "no bit" returned by the scan primitives.
inline constexpr size_t kNoBit = ~size_t{0};

/// \brief Which physical counting representation backs a miner run.
/// kBitmap and kHybrid are both a HybridIndex (at kBitmapDenseCutoff and at
/// the tuned cutoff respectively).
enum class BackendKind { kCsr, kBitmap, kHybrid };

/// \brief Backend selection in miner options: an explicit representation
/// or the adaptive per-database chooser.
enum class BackendChoice { kAuto, kCsr, kBitmap, kHybrid };

/// \brief The HybridIndex dense cutoff of the "bitmap" backend: every event
/// with at least one occurrence is stored as a bitmap row.
inline constexpr uint64_t kBitmapDenseCutoff = 1;

/// \brief Short lowercase name ("csr" / "bitmap" / "hybrid") for reports
/// and flags.
const char* BackendKindName(BackendKind kind);

/// \brief Parses a backend name as accepted by `--backend` and the server's
/// "backend" field: "auto" (or empty), "csr", "bitmap" or "hybrid";
/// nullopt for anything else.
std::optional<BackendChoice> ParseBackendChoice(std::string_view name);

/// \brief The adaptive chooser: picks the physical representation for
/// \p db from its shape, measured at index-build time.
///
/// Bitmap wins when rows are dense enough that one 64-bit word carries
/// several occurrences worth of scan work: the heuristic is
/// mean occurrences per event (TotalEvents / alphabet size) >= 8, with the
/// alphabet size entering a second time through the table-size cap
/// (alphabet x TotalEvents / 8 bytes <= 256 MB). Sparse corpora with a
/// large enough arena (>= 4096 events) go to the hybrid sparse/dense row
/// format, whose footprint at its tuned cutoff is bounded by the corpus
/// (not alphabet x arena) and whose rare-event lists stay cache-resident
/// where full bitmap rows thrash. Everything else — tiny corpora,
/// near-empty rows — stays on the CSR position index.
BackendKind ChooseBackendKind(const SequenceDatabase& db);

/// \brief Resolves a BackendChoice against \p db: explicit choices pass
/// through, kAuto consults ChooseBackendKind.
inline BackendKind ResolveBackendKind(BackendChoice choice,
                                      const SequenceDatabase& db) {
  if (choice == BackendChoice::kCsr) return BackendKind::kCsr;
  if (choice == BackendChoice::kBitmap) return BackendKind::kBitmap;
  if (choice == BackendChoice::kHybrid) return BackendKind::kHybrid;
  return ChooseBackendKind(db);
}

/// \brief The HybridIndex dense cutoff a vertical kind builds with:
/// kBitmapDenseCutoff for kBitmap, 0 (the tuned AutoDenseCutoff) for
/// kHybrid.
inline uint64_t DenseCutoffFor(BackendKind kind) {
  return kind == BackendKind::kBitmap ? kBitmapDenseCutoff : 0;
}

/// \brief Verifies the bitmap table for \p db stays within the explicit
/// memory ceiling (1 GB); OutOfRange naming the size otherwise. The auto
/// chooser never exceeds it; this guards the explicit kBitmap override,
/// and must run before its HybridIndex is built.
Status CheckBitmapIndexable(const SequenceDatabase& db);

// ---------------------------------------------------------------------------
// Word-wise scan primitives over one row (or any word array using the
// bit = arena-position convention). All ranges are half-open [from, limit)
// in global bit positions; the masks below are what makes unpadded
// sequence boundaries (and the 63/64/65-length edge cases the tests pin
// down) safe. They are the only implementation: HybridIndex and the
// vertical projection queries call them directly.
namespace bitrow {

/// \brief First set bit in [from, limit), or kNoBit.
inline size_t FirstSetAtOrAfter(const uint64_t* row, size_t from,
                                size_t limit) {
  if (from >= limit) return kNoBit;
  size_t w = from >> 6;
  const size_t last = (limit - 1) >> 6;
  uint64_t word = row[w] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (word != 0) {
      const size_t bit = (w << 6) + static_cast<size_t>(std::countr_zero(word));
      return bit < limit ? bit : kNoBit;
    }
    if (w == last) return kNoBit;
    word = row[++w];
  }
}

/// \brief Last set bit in [lo, before), or kNoBit.
inline size_t LastSetBefore(const uint64_t* row, size_t lo, size_t before) {
  if (lo >= before) return kNoBit;
  size_t w = (before - 1) >> 6;
  const size_t first = lo >> 6;
  const unsigned top = (before - 1) & 63;
  uint64_t word =
      row[w] & (top == 63 ? ~uint64_t{0} : (uint64_t{1} << (top + 1)) - 1);
  while (true) {
    if (word != 0) {
      const size_t bit =
          (w << 6) + 63 - static_cast<size_t>(std::countl_zero(word));
      return bit >= lo ? bit : kNoBit;
    }
    if (w == first) return kNoBit;
    word = row[--w];
  }
}

/// \brief True iff any bit of [from, limit) is set.
inline bool AnyInRange(const uint64_t* row, size_t from, size_t limit) {
  return FirstSetAtOrAfter(row, from, limit) != kNoBit;
}

/// \brief Number of set bits in [from, limit).
inline size_t CountInRange(const uint64_t* row, size_t from, size_t limit) {
  if (from >= limit) return 0;
  size_t w = from >> 6;
  const size_t last = (limit - 1) >> 6;
  uint64_t word = row[w] & (~uint64_t{0} << (from & 63));
  size_t count = 0;
  while (w < last) {
    count += static_cast<size_t>(std::popcount(word));
    word = row[++w];
  }
  const unsigned top = (limit - 1) & 63;
  word &= (top == 63 ? ~uint64_t{0} : (uint64_t{1} << (top + 1)) - 1);
  return count + static_cast<size_t>(std::popcount(word));
}

/// \brief ORs \p n rows over the word range [wb, we), overwriting
/// out[wb..we); n == 0 writes zeros. Words outside the range are untouched.
inline void UnionRows(const uint64_t* const* rows, size_t n, size_t wb,
                      size_t we, uint64_t* out) {
  for (size_t w = wb; w < we; ++w) {
    uint64_t u = 0;
    for (size_t i = 0; i < n; ++i) u |= rows[i][w];
    out[w] = u;
  }
}

}  // namespace bitrow

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_BITMAP_INDEX_H_
