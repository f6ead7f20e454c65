#include "src/itermine/bitmap_index.h"

#include <string>

namespace specmine {

namespace {

// Auto-chooser thresholds (documented in docs/architecture.md, "Counting
// backends"). kMinMeanOccurrences is the density gate: below it most row
// words are empty, the full bitmap table thrashes, and the hybrid format's
// cache-resident rare-event lists win.
constexpr double kMinMeanOccurrences = 8.0;
constexpr size_t kMaxAutoTableBytes = size_t{256} << 20;  // 256 MB.
constexpr size_t kMaxTableBytes = size_t{1} << 30;        // 1 GB, hard cap.

size_t TableBytes(const SequenceDatabase& db) {
  const size_t words = (db.TotalEvents() + 63) / 64;
  return db.dictionary().size() * words * sizeof(uint64_t);
}

}  // namespace

const char* BackendKindName(BackendKind kind) {
  return kind == BackendKind::kBitmap ? "bitmap" : "hybrid";
}

std::optional<BackendChoice> ParseBackendChoice(std::string_view name) {
  if (name.empty() || name == "auto") return BackendChoice::kAuto;
  if (name == "bitmap") return BackendChoice::kBitmap;
  if (name == "hybrid") return BackendChoice::kHybrid;
  return std::nullopt;
}

BackendKind ChooseBackendKind(const SequenceDatabase& db) {
  const size_t num_events = db.dictionary().size();
  const size_t total = db.TotalEvents();
  if (num_events == 0 || total == 0) return BackendKind::kHybrid;
  const double mean_occurrences =
      static_cast<double>(total) / static_cast<double>(num_events);
  if (mean_occurrences >= kMinMeanOccurrences &&
      TableBytes(db) <= kMaxAutoTableBytes) {
    return BackendKind::kBitmap;
  }
  // Sparse regime: rows too empty (or the dense table too large) for the
  // full bitmap. At its tuned cutoff the hybrid footprint is bounded by
  // the corpus, so no table cap applies.
  return BackendKind::kHybrid;
}

Status CheckBitmapIndexable(const SequenceDatabase& db) {
  const size_t bytes = TableBytes(db);
  if (bytes > kMaxTableBytes) {
    return Status::OutOfRange(
        "bitmap backend table would need " + std::to_string(bytes) +
        " bytes (" + std::to_string(db.dictionary().size()) + " events x " +
        std::to_string(db.TotalEvents()) +
        " positions); use the hybrid backend for this database");
  }
  return Status::OK();
}

}  // namespace specmine
