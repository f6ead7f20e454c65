#include "src/itermine/merged_index.h"

#include <algorithm>
#include <cassert>

#include "src/itermine/qre_verifier.h"
#include "src/seqmine/occurrence_engine.h"

namespace specmine {

MergedCountingIndex::MergedCountingIndex(
    const ShardedDatabase& set, std::vector<CountingBackend> shard_backends)
    : set_(&set),
      shards_(std::move(shard_backends)),
      num_events_(set.dictionary().size()) {
  assert(shards_.size() == set.num_shards());
  const size_t n = shards_.size();
  seq_base_.resize(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    seq_base_[i + 1] = seq_base_[i] + set.shard(i).size();
  }
  to_local_.resize(n);
  total_counts_.assign(num_events_, 0);
  sequence_counts_.assign(num_events_, 0);
  for (size_t i = 0; i < n; ++i) {
    to_local_[i].assign(num_events_, kInvalidEvent);
    const std::vector<EventId>& remap = set.remap(i);
    for (size_t local_ev = 0; local_ev < remap.size(); ++local_ev) {
      const EventId merged_ev = remap[local_ev];
      to_local_[i][merged_ev] = static_cast<EventId>(local_ev);
      total_counts_[merged_ev] +=
          shards_[i].TotalCount(static_cast<EventId>(local_ev));
      sequence_counts_[merged_ev] +=
          shards_[i].SequenceCount(static_cast<EventId>(local_ev));
    }
  }
}

bool MergedCountingIndex::AnyInRange(EventId ev, SeqId seq, Pos lo,
                                     Pos hi) const {
  const size_t shard = ShardOfSequence(seq);
  const EventId local = ToLocal(shard, ev);
  if (local == kInvalidEvent) return false;
  return shards_[shard].AnyInRange(local, seq - seq_base_[shard], lo, hi);
}

size_t MergedCountingIndex::table_bytes() const {
  size_t bytes = total_counts_.size() * sizeof(uint64_t) +
                 sequence_counts_.size() * sizeof(size_t) +
                 seq_base_.size() * sizeof(SeqId);
  for (const std::vector<EventId>& table : to_local_) {
    bytes += table.size() * sizeof(EventId);
  }
  return bytes;
}

// The out-of-line CountingBackend accessors (declared in
// counting_backend.h, where the full type is unavailable).

uint64_t MergedIndexTotalCount(const MergedCountingIndex& merged,
                               EventId ev) {
  return merged.TotalCount(ev);
}

size_t MergedIndexSequenceCount(const MergedCountingIndex& merged,
                                EventId ev) {
  return merged.SequenceCount(ev);
}

size_t MergedIndexNumEvents(const MergedCountingIndex& merged) {
  return merged.num_events();
}

bool MergedIndexAnyInRange(const MergedCountingIndex& merged, EventId ev,
                           SeqId seq, Pos lo, Pos hi) {
  return merged.AnyInRange(ev, seq, lo, hi);
}

namespace {

// Translates the merged pattern into \p shard's local ids. Returns false
// when some event is outside the shard's alphabet — in which case the
// shard cannot contain any instance of the pattern.
bool TranslatePattern(const MergedCountingIndex& index, size_t shard,
                      const Pattern& pattern, std::vector<EventId>* local) {
  local->clear();
  local->reserve(pattern.size());
  for (EventId ev : pattern) {
    const EventId lev = index.ToLocal(shard, ev);
    if (lev == kInvalidEvent) return false;
    local->push_back(lev);
  }
  return true;
}

}  // namespace

InstanceList SingleEventInstancesMerged(const MergedCountingIndex& index,
                                        EventId ev) {
  InstanceList out;
  out.reserve(index.TotalCount(ev));
  for (size_t i = 0; i < index.num_shards(); ++i) {
    const EventId local = index.ToLocal(i, ev);
    if (local == kInvalidEvent) continue;
    const SeqId base = index.seq_base(i);
    InstanceList shard_out =
        SingleEventInstances(index.shard_backend(i), local);
    for (const IterInstance& inst : shard_out) {
      out.push_back(IterInstance{inst.seq + base, inst.start, inst.end});
    }
  }
  return out;
}

void ForwardExtensionsMerged(const MergedCountingIndex& index,
                             const Pattern& pattern,
                             const InstanceList& instances,
                             ProjectionWorkspace* ws,
                             ForwardExtensionMap* out) {
  const size_t num_events = index.num_events();
  ws->forward.Reset(num_events);
  ProjectionWorkspace& cws = ws->ShardWorkspace();
  std::vector<EventId> local_pat;
  // Instances arrive sorted by merged sequence, so each shard's instances
  // form one contiguous run; every run is delegated as a single
  // shard-local query, keeping per-event emission order equal to the
  // merged scan order (shard order = sequence order).
  size_t i = 0;
  while (i < instances.size()) {
    const size_t shard = index.ShardOfSequence(instances[i].seq);
    const SeqId base = index.seq_base(shard);
    const SeqId next_base = index.seq_base(shard + 1);
    size_t j = i;
    while (j < instances.size() && instances[j].seq < next_base) ++j;
    if (TranslatePattern(index, shard, pattern, &local_pat)) {
      InstanceList& local = ws->shard_instances;
      local.clear();
      local.reserve(j - i);
      for (size_t t = i; t < j; ++t) {
        local.push_back(IterInstance{instances[t].seq - base,
                                     instances[t].start, instances[t].end});
      }
      ForwardExtensionMap shard_map = cws.forward.AcquireMap();
      ForwardExtensions(index.shard_backend(shard), Pattern(local_pat),
                        local, &cws, &shard_map);
      const std::vector<EventId>& remap = index.shard_set().remap(shard);
      for (auto& [local_ev, shard_insts] : shard_map) {
        InstanceList& bucket = ws->forward.Bucket(remap[local_ev]);
        for (const IterInstance& inst : shard_insts) {
          bucket.push_back(
              IterInstance{inst.seq + base, inst.start, inst.end});
        }
      }
      cws.forward.ReleaseMap(std::move(shard_map));
    }
    i = j;
  }
  ws->forward.Drain(out);
}

const BackwardExtensionMap& BackwardExtensionsMerged(
    const MergedCountingIndex& index, const Pattern& pattern,
    const InstanceList& instances, ProjectionWorkspace* ws) {
  const size_t num_events = index.num_events();
  ws->back.Reset(num_events);
  ProjectionWorkspace& cws = ws->ShardWorkspace();
  std::vector<EventId> local_pat;
  size_t i = 0;
  while (i < instances.size()) {
    const size_t shard = index.ShardOfSequence(instances[i].seq);
    const SeqId base = index.seq_base(shard);
    const SeqId next_base = index.seq_base(shard + 1);
    size_t j = i;
    while (j < instances.size() && instances[j].seq < next_base) ++j;
    if (TranslatePattern(index, shard, pattern, &local_pat)) {
      InstanceList& local = ws->shard_instances;
      local.clear();
      local.reserve(j - i);
      for (size_t t = i; t < j; ++t) {
        local.push_back(IterInstance{instances[t].seq - base,
                                     instances[t].start, instances[t].end});
      }
      const BackwardExtensionMap& shard_map = BackwardExtensions(
          index.shard_backend(shard), Pattern(local_pat), local, &cws);
      const std::vector<EventId>& remap = index.shard_set().remap(shard);
      // Supports add across shards; adjacency is an AND over all
      // instances, so it ANDs across shards too.
      for (const auto& [local_ev, ext] : shard_map) {
        BackwardExtension& slot = ws->back.Slot(remap[local_ev]);
        slot.support += ext.support;
        slot.all_adjacent = slot.all_adjacent && ext.all_adjacent;
      }
    }
    i = j;
  }
  std::vector<EventId>& touched = ws->back.touched();
  std::sort(touched.begin(), touched.end());
  ws->back_result.clear();
  for (EventId ev : touched) {
    ws->back_result.emplace_back(ev, ws->back.At(ev));
  }
  return ws->back_result;
}

uint64_t CountInstancesMerged(const MergedCountingIndex& index,
                              const Pattern& pattern,
                              QreRecountScratch* scratch) {
  uint64_t count = 0;
  std::vector<EventId> local_pat;
  for (size_t i = 0; i < index.num_shards(); ++i) {
    if (!TranslatePattern(index, i, pattern, &local_pat)) continue;
    count +=
        CountInstances(index.shard_backend(i), Pattern(local_pat), scratch);
  }
  return count;
}

size_t CountOccurrencesMerged(const MergedCountingIndex& index,
                              const Pattern& pattern) {
  size_t count = 0;
  std::vector<EventId> local_pat;
  for (size_t i = 0; i < index.num_shards(); ++i) {
    if (!TranslatePattern(index, i, pattern, &local_pat)) continue;
    count += CountOccurrences(index.shard_backend(i), Pattern(local_pat));
  }
  return count;
}

bool HasUniformInfixAbsorberMerged(const MergedCountingIndex& index,
                                   const Pattern& pattern,
                                   const InstanceList& instances,
                                   ProjectionWorkspace* ws) {
  assert(pattern.size() >= 2);
  if (instances.empty()) return false;
  // Same profile-intersection algorithm as the db-level
  // HasUniformInfixAbsorber (projection.cc), with each instance's span
  // read from its shard's local arena and every event translated to
  // merged ids on the fly — profiles and the alphabet marks live in
  // merged event space, so the cross-shard intersection is exact.
  const size_t num_events = index.num_events();
  ws->alphabet.EnsureSize(num_events);
  ws->alphabet.Clear();
  for (EventId ev : pattern) ws->alphabet.Set(ev);
  const size_t num_gaps = pattern.size() - 1;

  auto& common = ws->common;
  bool result = false;
  for (size_t i = 0; i < instances.size(); ++i) {
    const IterInstance& inst = instances[i];
    const size_t shard = index.ShardOfSequence(inst.seq);
    const SequenceDatabase& sdb = index.shard_backend(shard).db();
    const std::vector<EventId>& remap = index.shard_set().remap(shard);
    const EventSpan seq = sdb[inst.seq - index.seq_base(shard)];
    ws->profiles.Reset(num_events);
    size_t gap = 0;  // Index of the gap we are currently inside.
    for (Pos p = inst.start + 1; p <= inst.end; ++p) {
      const EventId local_ev = seq[p];
      if (local_ev >= remap.size()) continue;  // Defensive.
      const EventId ev = remap[local_ev];
      if (ev >= num_events) continue;  // Defensive.
      if (ws->alphabet.Test(ev)) {
        // By the QRE this must be the next pattern event.
        ++gap;
        continue;
      }
      auto& profile = ws->profiles.Bucket(ev);
      if (profile.empty()) profile.assign(num_gaps, 0);
      ++profile[gap];
    }
    if (i == 0) {
      ws->profiles.Drain(&common);
    } else {
      // Keep only events whose profile matches exactly.
      auto& entries = common.entries();
      size_t kept = 0;
      for (auto& entry : entries) {
        const auto* current = ws->profiles.FindTouched(entry.first);
        if (current != nullptr && *current == entry.second) {
          if (kept != static_cast<size_t>(&entry - entries.data())) {
            entries[kept] = std::move(entry);
          }
          ++kept;
        } else {
          ws->profiles.Recycle(std::move(entry.second));
        }
      }
      entries.resize(kept);
    }
    if (common.empty()) break;
  }
  result = !common.empty();
  ws->profiles.Recycle(std::move(common));
  return result;
}

}  // namespace specmine
