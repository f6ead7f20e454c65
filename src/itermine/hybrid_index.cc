#include "src/itermine/hybrid_index.h"

namespace specmine {

HybridIndex::HybridIndex(const SequenceDatabase& db, uint64_t dense_cutoff)
    : db_(&db),
      num_events_(db.dictionary().size()),
      words_((db.TotalEvents() + 63) / 64),
      dense_cutoff_(dense_cutoff != 0 ? dense_cutoff : AutoDenseCutoff(db)) {
  total_counts_.assign(num_events_, 0);
  sequence_counts_.assign(num_events_, 0);
  const EventId* arena = db.arena();
  const size_t total = db.TotalEvents();
  // Count pass: occurrences, plus sequence counts via a last-seen stamp.
  std::vector<SeqId> last_seen(num_events_, ~SeqId{0});
  const uint64_t* offsets = db.offsets();
  for (SeqId s = 0; s < db.size(); ++s) {
    for (size_t g = offsets[s]; g < offsets[s + 1]; ++g) {
      const EventId ev = arena[g];
      if (ev >= num_events_) continue;  // Defensive; ids come from dict.
      ++total_counts_[ev];
      if (last_seen[ev] == s) continue;
      last_seen[ev] = s;
      ++sequence_counts_[ev];
    }
  }

  // Split the alphabet at the cutoff and lay out both sides: dense events
  // get compacted row ids, sparse events a CSR over one shared position
  // array (dense events keep an empty range so the offsets stay dense).
  row_index_.assign(num_events_, kNoRow);
  sparse_offsets_.assign(num_events_ + 1, 0);
  for (EventId ev = 0; ev < num_events_; ++ev) {
    if (total_counts_[ev] >= dense_cutoff_) {
      row_index_[ev] = static_cast<uint32_t>(num_dense_++);
    } else {
      sparse_offsets_[ev + 1] = total_counts_[ev];
    }
  }
  for (EventId ev = 0; ev < num_events_; ++ev) {
    sparse_offsets_[ev + 1] += sparse_offsets_[ev];
  }
  bits_.assign(num_dense_ * words_, 0);
  positions_.resize(sparse_offsets_[num_events_]);

  // Fill pass: arena order IS sorted global-position order per event, so
  // the sparse lists come out sorted with a plain write cursor.
  std::vector<size_t> cursor(sparse_offsets_.begin(),
                             sparse_offsets_.end() - 1);
  for (size_t g = 0; g < total; ++g) {
    const EventId ev = arena[g];
    if (ev >= num_events_) continue;
    const uint32_t r = row_index_[ev];
    if (r != kNoRow) {
      bits_[static_cast<size_t>(r) * words_ + (g >> 6)] |= uint64_t{1}
                                                           << (g & 63);
    } else {
      positions_[cursor[ev]++] = static_cast<uint32_t>(g);
    }
  }
}

void HybridIndex::UnionRest(const std::vector<EventId>& alphabet, size_t base,
                            size_t limit, uint64_t* out) const {
  const size_t wb = base >> 6;
  const size_t we = ((limit - 1) >> 6) + 1;
  size_t dense_seen = 0;
  for (EventId ev : alphabet) {
    const uint32_t r = row_index_[ev];
    if (r != kNoRow) {
      // Pathological alphabets beyond the stack chunk: word-wise OR tail.
      if (dense_seen++ < kUnionChunk) continue;
      const uint64_t* row = dense_row(r);
      for (size_t w = wb; w < we; ++w) out[w] |= row[w];
      continue;
    }
    // Rare alphabet events: scatter their in-range positions as bits.
    const uint32_t* it = positions_.data() + sparse_offsets_[ev];
    const uint32_t* end = positions_.data() + sparse_offsets_[ev + 1];
    it = std::lower_bound(it, end, static_cast<uint32_t>(base));
    for (; it != end && *it < limit; ++it) {
      out[*it >> 6] |= uint64_t{1} << (*it & 63);
    }
  }
}

}  // namespace specmine
