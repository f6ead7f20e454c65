#include "src/itermine/bitmap_index.h"

#include <string>

namespace specmine {

namespace {

// Auto-chooser thresholds (documented in docs/architecture.md, "Counting
// backends"). kMinMeanOccurrences is the density gate: below it most row
// words are empty and word-wise scans lose to the CSR position lists —
// unless the arena is big enough (kMinHybridArenaEvents) that the hybrid
// format's cache-resident rare-event lists beat both, which is where the
// full bitmap table thrashes and CSR pays its per-position overhead.
constexpr double kMinMeanOccurrences = 8.0;
constexpr size_t kMinHybridArenaEvents = 4096;
constexpr size_t kMaxAutoTableBytes = size_t{256} << 20;  // 256 MB.
constexpr size_t kMaxTableBytes = size_t{1} << 30;        // 1 GB, hard cap.

size_t TableBytes(const SequenceDatabase& db) {
  const size_t words = (db.TotalEvents() + 63) / 64;
  return db.dictionary().size() * words * sizeof(uint64_t);
}

}  // namespace

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kBitmap:
      return "bitmap";
    case BackendKind::kHybrid:
      return "hybrid";
    case BackendKind::kCsr:
      break;
  }
  return "csr";
}

std::optional<BackendChoice> ParseBackendChoice(std::string_view name) {
  if (name.empty() || name == "auto") return BackendChoice::kAuto;
  if (name == "csr") return BackendChoice::kCsr;
  if (name == "bitmap") return BackendChoice::kBitmap;
  if (name == "hybrid") return BackendChoice::kHybrid;
  return std::nullopt;
}

BackendKind ChooseBackendKind(const SequenceDatabase& db) {
  const size_t num_events = db.dictionary().size();
  const size_t total = db.TotalEvents();
  if (num_events == 0 || total == 0) return BackendKind::kCsr;
  const double mean_occurrences =
      static_cast<double>(total) / static_cast<double>(num_events);
  if (mean_occurrences >= kMinMeanOccurrences &&
      TableBytes(db) <= kMaxAutoTableBytes) {
    return BackendKind::kBitmap;
  }
  // Sparse regime: rows too empty (or the dense table too large) for the
  // full bitmap. Large arenas go hybrid — at its tuned cutoff the
  // footprint is bounded by the corpus, so no table cap applies; tiny
  // corpora keep CSR, whose constant factors win when everything fits in
  // cache anyway.
  return total >= kMinHybridArenaEvents ? BackendKind::kHybrid
                                        : BackendKind::kCsr;
}

Status CheckBitmapIndexable(const SequenceDatabase& db) {
  const size_t bytes = TableBytes(db);
  if (bytes > kMaxTableBytes) {
    return Status::OutOfRange(
        "bitmap backend table would need " + std::to_string(bytes) +
        " bytes (" + std::to_string(db.dictionary().size()) + " events x " +
        std::to_string(db.TotalEvents()) +
        " positions); use the csr backend for this database");
  }
  return Status::OK();
}

}  // namespace specmine
