// Internal: the bodies of the vertical projection queries — the same
// contracts as projection.h, computed word-wise over HybridIndex rows and
// ID lists instead of per-position scans over CSR position lists.
//
// These are the HybridIndex arms of the CountingBackend dispatch in
// projection.cc / qre_verifier.cc / occurrence_engine.cc (serving both the
// "bitmap" and the "hybrid" backend, which differ only in the index's
// dense cutoff); callers outside those files should use the dispatching
// overloads. Every function here is observationally identical to its CSR
// sibling — same entries, same supports, same emission order — which is
// what the backend-equivalence property suite pins down.
//
// Index queries use the global-bit conventions of bitmap_index.h (bit g =
// arena position g, ranges half-open, kNoBit = none). Union rows are
// always word-packed — rare events are scattered into the union as bits —
// so the union-row scans call the bitrow word primitives directly.
//
// Cold-path note: unlike the CSR engine, whose workspace carries several
// O(alphabet)-sized epoch tables, the vertical engine's scratch is one
// word row (ceil(total events / 64) words) plus flat candidate buffers
// that scale with the result size, so a cold call (fresh workspace)
// allocates almost nothing.

#ifndef SPECMINE_ITERMINE_VERTICAL_PROJECTION_IMPL_H_
#define SPECMINE_ITERMINE_VERTICAL_PROJECTION_IMPL_H_

#include <algorithm>
#include <vector>

#include "src/itermine/hybrid_index.h"
#include "src/itermine/projection.h"

namespace specmine {
namespace internal {

// Whether an instance list spanning `distinct_seqs` sequences should build
// the alphabet union row once over the whole arena instead of once per
// sequence. Per-sequence builds are dominated by call-and-mask overhead on
// short ranges (~16 word-ops each), while the single long build streams
// the rows once; UnionRows overwrites its range, so both strategies leave
// identical bits in every probed range.
inline bool UseWholeRowUnion(size_t distinct_seqs, size_t total_words) {
  return distinct_seqs * 16 >= total_words;
}

// Number of distinct sequences in an instance list (instances arrive
// grouped by sequence, so transitions count them exactly).
inline size_t DistinctSequences(const InstanceList& instances) {
  size_t distinct = 0;
  SeqId prev = ~SeqId{0};
  for (const IterInstance& inst : instances) {
    if (inst.seq != prev) {
      prev = inst.seq;
      ++distinct;
    }
  }
  return distinct;
}

// Collects the distinct pattern events into *alphabet (cleared first).
// Patterns are short, so the quadratic dedup beats any table.
inline void DistinctAlphabet(const Pattern& pattern, size_t num_events,
                             std::vector<EventId>* alphabet) {
  alphabet->clear();
  for (EventId ev : pattern) {
    if (ev >= num_events) continue;  // Defensive; ids come from dict.
    if (std::find(alphabet->begin(), alphabet->end(), ev) ==
        alphabet->end()) {
      alphabet->push_back(ev);
    }
  }
}

// Marks every event occurring strictly inside the instance span (the
// gaps) into *gap_events (cleared first) with one sequential arena walk.
// Gap-freedom per candidate then costs one O(1) membership test instead
// of a per-candidate row probe — the probes were ~5 single-word scans per
// instance, pure call-and-mask overhead. `base` is the global bit offset
// of the instance's sequence.
inline void MarkGapEvents(const EventId* arena, size_t num_events,
                          size_t base, const IterInstance& inst,
                          EventMarkSet* gap_events) {
  gap_events->Clear();
  const size_t gap_end = base + inst.end;
  for (size_t g = base + inst.start + 1; g < gap_end; ++g) {
    if (arena[g] < num_events) gap_events->Set(arena[g]);
  }
}

// Instances of <ev>, in (sequence, position) order. Dense events
// enumerate their bitmap row per sequence; sparse events walk their sorted
// ID list directly — O(occurrences x log sequences) instead of a
// per-sequence scan, which is what makes low-support root expansion cheap
// on huge-alphabet corpora.
inline InstanceList SingleEventInstancesVertical(const HybridIndex& index,
                                                 EventId ev) {
  InstanceList out;
  if (ev >= index.num_events()) return out;
  out.reserve(index.TotalCount(ev));
  const SequenceDatabase& db = index.db();
  const uint64_t* offsets = db.offsets();
  if (!index.is_dense(ev)) {
    const size_t num_seqs = db.size();
    SeqId s = 0;
    for (const uint32_t* it = index.sparse_begin(ev);
         it != index.sparse_end(ev); ++it) {
      // Positions ascend, so each sequence lookup resumes past the last hit.
      s = static_cast<SeqId>(
          std::upper_bound(offsets + s + 1, offsets + num_seqs + 1,
                           static_cast<uint64_t>(*it)) -
          offsets - 1);
      const Pos p = static_cast<Pos>(*it - offsets[s]);
      out.push_back(IterInstance{s, p, p});
    }
    return out;
  }
  for (SeqId s = 0; s < db.size(); ++s) {
    const size_t base = offsets[s];
    const size_t limit = offsets[s + 1];
    for (size_t g = index.FirstOfEventAtOrAfter(ev, base, limit);
         g != kNoBit; g = index.FirstOfEventAtOrAfter(ev, g + 1, limit)) {
      const Pos p = static_cast<Pos>(g - base);
      out.push_back(IterInstance{s, p, p});
    }
  }
  return out;
}

// Counts one backward extension by `ev` into ws->back — shared by the CSR
// and the vertical arm.
inline void TallyBackward(EventId ev, bool adjacent, ProjectionWorkspace* ws) {
  BackwardExtension& ext = ws->back.Slot(ev);
  ++ext.support;
  ext.all_adjacent = ext.all_adjacent && adjacent;
}

// Writes the tallied backward extensions that reach `min_count` into
// ws->back_result in ascending event order — the drain both arms share.
inline const BackwardExtensionMap& DrainBackward(uint64_t min_count,
                                                 ProjectionWorkspace* ws) {
  std::vector<EventId>& touched = ws->back.touched();
  std::sort(touched.begin(), touched.end());
  ws->back_result.clear();
  for (EventId ev : touched) {
    const BackwardExtension& ext = ws->back.At(ev);
    if (ext.support >= min_count) ws->back_result.emplace_back(ev, ext);
  }
  return ws->back_result;
}

inline void ForwardExtensionsVertical(const HybridIndex& index,
                                      const Pattern& pattern,
                                      const InstanceList& instances,
                                      uint64_t min_count,
                                      ProjectionWorkspace* ws,
                                      ForwardExtensionMap* out) {
  VerticalScratch& sc = ws->vertical;
  const size_t num_events = index.num_events();
  const SequenceDatabase& db = index.db();
  const EventId* arena = db.arena();
  const uint64_t* offsets = db.offsets();
  DistinctAlphabet(pattern, num_events, &sc.alphabet);
  sc.forward.clear();
  sc.slots.Reset(num_events);
  ws->seen.EnsureSize(num_events);
  // One-event patterns have no gaps, so the gap set stays untouched.
  const bool has_gaps = pattern.size() > 1;
  if (has_gaps) sc.gap_events.EnsureSize(num_events);

  const size_t total_bits = offsets[db.size()];
  const bool whole_row =
      UseWholeRowUnion(DistinctSequences(instances), (total_bits + 63) >> 6);
  if (whole_row) {
    index.BuildUnionForRange(sc.alphabet, 0, total_bits, &sc.union_words);
  }
  SeqId prepared = ~SeqId{0};
  size_t base = 0, limit = 0;
  for (const IterInstance& inst : instances) {
    if (inst.seq != prepared) {
      prepared = inst.seq;
      base = offsets[inst.seq];
      limit = offsets[inst.seq + 1];
      if (!whole_row) {
        index.BuildUnionForRange(sc.alphabet, base, limit, &sc.union_words);
      }
    }
    if (has_gaps) {
      MarkGapEvents(arena, num_events, base, inst, &sc.gap_events);
    }
    const size_t from = base + inst.end + 1;
    // First alphabet(P) event after the instance: bounds the candidate
    // window — everything before it is out-of-alphabet by construction —
    // and is itself the unique alphabet extension endpoint.
    const size_t stop =
        bitrow::FirstSetAtOrAfter(sc.union_words.data(), from, limit);
    const size_t window_end = stop == kNoBit ? limit : stop;
    ws->seen.Clear();
    for (size_t g = from; g < window_end; ++g) {
      const EventId ev = arena[g];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      if (index.TotalCount(ev) < min_count) continue;  // Count bound.
      if (!ws->seen.TestAndSet(ev)) continue;  // First occurrence only.
      if (has_gaps && sc.gap_events.Test(ev)) continue;
      ++sc.slots.Slot(ev);
      sc.forward.push_back(VerticalScratch::ForwardCandidate{
          ev, IterInstance{inst.seq, inst.start, static_cast<Pos>(g - base)}});
    }
    if (stop != kNoBit && index.TotalCount(arena[stop]) >= min_count) {
      ++sc.slots.Slot(arena[stop]);
      sc.forward.push_back(VerticalScratch::ForwardCandidate{
          arena[stop],
          IterInstance{inst.seq, inst.start, static_cast<Pos>(stop - base)}});
    }
  }

  // Count-and-scatter drain: the touched-event list gives exact bucket
  // sizes, so each bucket is reserved once (no realloc churn — the CSR
  // cold path's dominant cost) and the flat buffer is scattered in
  // discovery order, which within an event IS the CSR bucket order. Only
  // the distinct-event list (small) is ever sorted, never the K
  // candidates. Events below min_count get no bucket; their candidates
  // are skipped by the scatter.
  constexpr uint32_t kDropped = ~uint32_t{0};
  std::vector<EventId>& touched = sc.slots.touched();
  std::sort(touched.begin(), touched.end());
  out->clear();
  out->entries().reserve(touched.size());
  for (const EventId ev : touched) {
    // Repurpose the slot as the event's entry index for the scatter.
    uint32_t& slot = sc.slots.Slot(ev);
    if (slot < min_count) {
      slot = kDropped;
      continue;
    }
    InstanceList bucket = ws->forward.AcquireBucket();
    bucket.reserve(slot);
    slot = static_cast<uint32_t>(out->size());
    out->emplace_back(ev, std::move(bucket));
  }
  if (out->empty()) return;
  auto& entries = out->entries();
  for (const VerticalScratch::ForwardCandidate& cand : sc.forward) {
    const uint32_t entry = sc.slots.At(cand.ev);
    if (entry != kDropped) entries[entry].second.push_back(cand.inst);
  }
}

inline const BackwardExtensionMap& BackwardExtensionsVertical(
    const HybridIndex& index, const Pattern& pattern,
    const InstanceList& instances, uint64_t min_count,
    ProjectionWorkspace* ws) {
  VerticalScratch& sc = ws->vertical;
  const size_t num_events = index.num_events();
  const SequenceDatabase& db = index.db();
  const EventId* arena = db.arena();
  const uint64_t* offsets = db.offsets();
  DistinctAlphabet(pattern, num_events, &sc.alphabet);
  ws->back.Reset(num_events);
  ws->seen.EnsureSize(num_events);
  const bool has_gaps = pattern.size() > 1;
  if (has_gaps) sc.gap_events.EnsureSize(num_events);

  // Instances [0, walked) are walked window by window: an event first met
  // there can still reach min_count. Past them fewer than min_count
  // instances remain, so later instances only probe the events tallied so
  // far that can still reach it (at min_count == instances.size(), the
  // closed miner's threshold, walked is 1: intersect-and-stop).
  const size_t n = instances.size();
  if (min_count > n) return DrainBackward(min_count, ws);
  const size_t walked = static_cast<size_t>(n + 1 - min_count);
  std::vector<EventId>& alive = sc.alive;

  // The union row is built per sequence until the sequences prepared so
  // far would have paid for one whole-arena build (UseWholeRowUnion over
  // the sequences actually reached, since an early exit may reach few).
  const size_t total_bits = offsets[db.size()];
  const size_t total_words = (total_bits + 63) >> 6;
  bool whole_row = false;
  size_t seqs_prepared = 0;
  SeqId prepared = ~SeqId{0};
  size_t base = 0, limit = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == walked) {
      alive.assign(ws->back.touched().begin(), ws->back.touched().end());
    }
    if (i >= walked && alive.empty()) break;  // Nothing can qualify.
    const IterInstance& inst = instances[i];
    if (inst.seq != prepared) {
      prepared = inst.seq;
      base = offsets[inst.seq];
      limit = offsets[inst.seq + 1];
      if (!whole_row) {
        whole_row = UseWholeRowUnion(++seqs_prepared, total_words);
        if (whole_row) {
          index.BuildUnionForRange(sc.alphabet, 0, total_bits,
                                   &sc.union_words);
        } else {
          index.BuildUnionForRange(sc.alphabet, base, limit, &sc.union_words);
        }
      }
    }
    const size_t gstart = base + inst.start;
    // Last alphabet(P) event before the instance start bounds the window;
    // it is itself the unique alphabet backward extension.
    const size_t stop =
        bitrow::LastSetBefore(sc.union_words.data(), base, gstart);
    const size_t window_begin = stop == kNoBit ? base : stop + 1;
    if (i >= walked) {
      // The walk's outcome for one event: the stop event if it is that,
      // else present in the window (which holds no alphabet event) and
      // absent from the gaps; adjacent iff it sits right before the start.
      const size_t remaining = n - i - 1;
      size_t kept = 0;
      for (const EventId ev : alive) {
        if (stop != kNoBit && arena[stop] == ev) {
          TallyBackward(ev, stop + 1 == gstart, ws);
        } else if (index.AnyOfEventInRange(ev, window_begin, gstart) &&
                   !(has_gaps && index.AnyOfEventInRange(
                                     ev, gstart + 1, base + inst.end))) {
          TallyBackward(ev, arena[gstart - 1] == ev, ws);
        }
        if (ws->back.At(ev).support + remaining >= min_count) {
          alive[kept++] = ev;
        }
      }
      alive.resize(kept);
      continue;
    }
    if (has_gaps) {
      MarkGapEvents(arena, num_events, base, inst, &sc.gap_events);
    }
    ws->seen.Clear();
    for (size_t g = gstart; g-- > window_begin;) {
      const EventId ev = arena[g];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      if (index.TotalCount(ev) < min_count) continue;  // Count bound.
      if (!ws->seen.TestAndSet(ev)) continue;  // Nearest-to-start only.
      if (has_gaps && sc.gap_events.Test(ev)) continue;
      TallyBackward(ev, g + 1 == gstart, ws);
    }
    if (stop != kNoBit && index.TotalCount(arena[stop]) >= min_count) {
      TallyBackward(arena[stop], stop + 1 == gstart, ws);
    }
  }
  return DrainBackward(min_count, ws);
}

inline uint64_t CountInstancesVertical(const HybridIndex& index,
                                       const Pattern& pattern,
                                       QreRecountScratch* scratch) {
  if (pattern.empty()) return 0;
  QreRecountScratch local;
  if (scratch == nullptr) scratch = &local;
  const size_t num_events = index.num_events();
  if (pattern[0] >= num_events) return 0;  // First event never occurs.
  DistinctAlphabet(pattern, num_events, &scratch->alphabet);
  const SequenceDatabase& db = index.db();
  const EventId* arena = db.arena();
  const uint64_t* offsets = db.offsets();
  const EventId head = pattern[0];
  uint64_t count = 0;
  for (SeqId s = 0; s < db.size(); ++s) {
    const size_t base = offsets[s];
    const size_t limit = offsets[s + 1];
    size_t g = index.FirstOfEventAtOrAfter(head, base, limit);
    if (g == kNoBit) continue;
    index.BuildUnionForRange(scratch->alphabet, base, limit,
                             &scratch->union_words);
    const uint64_t* union_row = scratch->union_words.data();
    for (; g != kNoBit; g = index.FirstOfEventAtOrAfter(head, g + 1, limit)) {
      // Deterministic chain (Definition 4.1): each next pattern event must
      // be the first alphabet event after the previous one.
      size_t cur = g;
      bool ok = true;
      for (size_t k = 1; k < pattern.size(); ++k) {
        const size_t a = bitrow::FirstSetAtOrAfter(union_row, cur + 1, limit);
        if (a == kNoBit || arena[a] != pattern[k]) {
          ok = false;
          break;
        }
        cur = a;
      }
      if (ok) ++count;
    }
  }
  return count;
}

inline size_t CountOccurrencesVertical(const HybridIndex& index,
                                       const Pattern& pattern) {
  if (pattern.empty()) return 0;
  const size_t num_events = index.num_events();
  const SequenceDatabase& db = index.db();
  const uint64_t* offsets = db.offsets();
  const EventId last = pattern.last();
  if (last >= num_events) return 0;
  size_t count = 0;
  for (SeqId s = 0; s < db.size(); ++s) {
    const size_t base = offsets[s];
    const size_t limit = offsets[s + 1];
    // Greedy earliest embedding of the prefix, one first-set-bit per
    // event; the remaining occurrences of the last event are the temporal
    // points (Definition 5.1).
    size_t from = base;
    bool embedded = true;
    for (size_t k = 0; k + 1 < pattern.size(); ++k) {
      if (pattern[k] >= num_events) {
        embedded = false;
        break;
      }
      const size_t g = index.FirstOfEventAtOrAfter(pattern[k], from, limit);
      if (g == kNoBit) {
        embedded = false;
        break;
      }
      from = g + 1;
    }
    if (!embedded) continue;
    count += index.CountOfEventInRange(last, from, limit);
  }
  return count;
}

}  // namespace internal
}  // namespace specmine

#endif  // SPECMINE_ITERMINE_VERTICAL_PROJECTION_IMPL_H_
