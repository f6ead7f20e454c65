#include "src/itermine/projection.h"

#include <algorithm>
#include <cassert>

#include "src/itermine/vertical_projection_impl.h"

namespace specmine {

InstanceList SingleEventInstances(const PositionIndex& index, EventId ev) {
  InstanceList out;
  out.reserve(index.TotalCount(ev));
  const SequenceDatabase& db = index.db();
  for (SeqId s = 0; s < db.size(); ++s) {
    for (Pos p : index.Positions(ev, s)) {
      out.push_back(IterInstance{s, p, p});
    }
  }
  return out;
}

namespace {

// True iff `ev` (not in the pattern alphabet) occurs strictly inside the
// instance span — necessarily inside a gap, which would invalidate any
// extension whose alphabet includes `ev`.
bool OccursInGaps(const PositionIndex& index, EventId ev,
                  const IterInstance& inst) {
  if (inst.end <= inst.start + 1) return false;
  return index.CountInRange(ev, inst.seq, inst.start + 1, inst.end - 1) > 0;
}

// Stamps the pattern's alphabet into ws->alphabet and sizes the mark sets.
void PrepareAlphabet(const Pattern& pattern, size_t num_events,
                     ProjectionWorkspace* ws) {
  ws->alphabet.EnsureSize(num_events);
  ws->seen.EnsureSize(num_events);
  ws->alphabet.Clear();
  for (EventId ev : pattern) ws->alphabet.Set(ev);
}

}  // namespace

void ForwardExtensions(const PositionIndex& index, const Pattern& pattern,
                       const InstanceList& instances, uint64_t min_count,
                       ProjectionWorkspace* ws, ForwardExtensionMap* out) {
  const SequenceDatabase& db = index.db();
  const size_t num_events = index.num_events();
  PrepareAlphabet(pattern, num_events, ws);
  ws->forward.Reset(num_events);
  for (const IterInstance& inst : instances) {
    const EventSpan seq = db[inst.seq];
    ws->seen.Clear();
    for (Pos p = inst.end + 1; p < seq.size(); ++p) {
      EventId ev = seq[p];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      const bool can_qualify = index.TotalCount(ev) >= min_count;
      if (ws->alphabet.Test(ev)) {
        // First alphabet event after the instance: `ev` itself is a valid
        // extension (its exclusion set is exactly the alphabet and the
        // scanned segment contains none of it); nothing beyond it can be.
        if (can_qualify) {
          ws->forward.Bucket(ev).push_back(
              IterInstance{inst.seq, inst.start, p});
        }
        break;
      }
      if (!can_qualify) continue;  // Count bound: see projection.h.
      if (!ws->seen.TestAndSet(ev)) continue;  // Only the first occurrence.
      if (OccursInGaps(index, ev, inst)) continue;
      ws->forward.Bucket(ev).push_back(IterInstance{inst.seq, inst.start, p});
    }
  }
  ws->forward.Drain(out, min_count);
}

const BackwardExtensionMap& BackwardExtensions(const PositionIndex& index,
                                               const Pattern& pattern,
                                               const InstanceList& instances,
                                               uint64_t min_count,
                                               ProjectionWorkspace* ws) {
  const SequenceDatabase& db = index.db();
  const size_t num_events = index.num_events();
  PrepareAlphabet(pattern, num_events, ws);
  ws->back.Reset(num_events);
  for (const IterInstance& inst : instances) {
    const EventSpan seq = db[inst.seq];
    ws->seen.Clear();
    for (Pos p = inst.start; p-- > 0;) {
      EventId ev = seq[p];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      const bool can_qualify = index.TotalCount(ev) >= min_count;
      const bool adjacent = (p + 1 == inst.start);
      if (ws->alphabet.Test(ev)) {
        if (can_qualify) internal::TallyBackward(ev, adjacent, ws);
        break;
      }
      if (!can_qualify) continue;  // Count bound: see projection.h.
      if (!ws->seen.TestAndSet(ev)) continue;
      if (OccursInGaps(index, ev, inst)) continue;
      internal::TallyBackward(ev, adjacent, ws);
    }
  }
  return internal::DrainBackward(min_count, ws);
}

bool HasUniformInfixAbsorber(const SequenceDatabase& db,
                             const Pattern& pattern,
                             const InstanceList& instances,
                             ProjectionWorkspace* ws) {
  assert(pattern.size() >= 2);
  if (instances.empty()) return false;
  const size_t num_events = db.dictionary().size();
  PrepareAlphabet(pattern, num_events, ws);
  const size_t num_gaps = pattern.size() - 1;

  // Profile of the first instance; then intersect with each later one.
  // A profile is the per-gap occurrence count vector of one out-of-alphabet
  // event inside the instance span.
  auto& common = ws->common;
  bool result = false;
  for (size_t i = 0; i < instances.size(); ++i) {
    const IterInstance& inst = instances[i];
    const EventSpan seq = db[inst.seq];
    ws->profiles.Reset(num_events);
    size_t gap = 0;  // Index of the gap we are currently inside.
    for (Pos p = inst.start + 1; p <= inst.end; ++p) {
      EventId ev = seq[p];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
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

// ---------------------------------------------------------------------------
// Backend dispatch: one branch per query, never per position.

InstanceList SingleEventInstances(const CountingBackend& backend,
                                  EventId ev) {
  switch (backend.kind()) {
    case BackendKind::kHybrid:
      return internal::SingleEventInstancesVertical(backend.hybrid(), ev);
    default:
      return SingleEventInstances(backend.csr(), ev);
  }
}

void ForwardExtensions(const CountingBackend& backend, const Pattern& pattern,
                       const InstanceList& instances, uint64_t min_count,
                       ProjectionWorkspace* ws, ForwardExtensionMap* out) {
  switch (backend.kind()) {
    case BackendKind::kHybrid:
      internal::ForwardExtensionsVertical(backend.hybrid(), pattern,
                                          instances, min_count, ws, out);
      return;
    default:
      ForwardExtensions(backend.csr(), pattern, instances, min_count, ws,
                        out);
      return;
  }
}

const BackwardExtensionMap& BackwardExtensions(const CountingBackend& backend,
                                               const Pattern& pattern,
                                               const InstanceList& instances,
                                               uint64_t min_count,
                                               ProjectionWorkspace* ws) {
  switch (backend.kind()) {
    case BackendKind::kHybrid:
      return internal::BackwardExtensionsVertical(backend.hybrid(), pattern,
                                                  instances, min_count, ws);
    default:
      return BackwardExtensions(backend.csr(), pattern, instances, min_count,
                                ws);
  }
}

ForwardExtensionMap ForwardExtensions(const PositionIndex& index,
                                      const Pattern& pattern,
                                      const InstanceList& instances) {
  ProjectionWorkspace ws;
  ForwardExtensionMap out;
  ForwardExtensions(index, pattern, instances, /*min_count=*/1, &ws, &out);
  return out;
}

BackwardExtensionMap BackwardExtensions(const PositionIndex& index,
                                        const Pattern& pattern,
                                        const InstanceList& instances) {
  ProjectionWorkspace ws;
  return BackwardExtensions(index, pattern, instances, /*min_count=*/1, &ws);
}

bool HasUniformInfixAbsorber(const SequenceDatabase& db,
                             const Pattern& pattern,
                             const InstanceList& instances) {
  ProjectionWorkspace ws;
  return HasUniformInfixAbsorber(db, pattern, instances, &ws);
}

}  // namespace specmine
