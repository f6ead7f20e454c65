#include "src/itermine/projection.h"

#include <algorithm>
#include <cassert>

namespace specmine {

namespace {

// Whether an instance list spanning `distinct_seqs` sequences should build
// the alphabet union row once over the whole arena instead of once per
// sequence. Per-sequence builds are dominated by call-and-mask overhead on
// short ranges (~16 word-ops each), while the single long build streams
// the rows once; UnionRows overwrites its range, so both strategies leave
// identical bits in every probed range.
bool UseWholeRowUnion(size_t distinct_seqs, size_t total_words) {
  return distinct_seqs * 16 >= total_words;
}

// The alphabet union row (sc->union_words over sc->alphabet) for the
// sequences a query reaches, in instance order. It is built per sequence
// until the sequences prepared so far would have paid for one whole-arena
// build (UseWholeRowUnion over the sequences actually reached, since an
// early exit may reach few), then once over the whole arena.
class LazyUnionRow {
 public:
  LazyUnionRow(const HybridIndex& index, VerticalScratch* sc)
      : index_(index),
        sc_(sc),
        offsets_(index.db().offsets()),
        total_bits_(offsets_[index.db().size()]),
        total_words_((total_bits_ + 63) >> 6) {}

  // Makes the row valid over sequence `seq` and its range [base, limit).
  void Prepare(SeqId seq) {
    if (seq == prepared_) return;
    prepared_ = seq;
    base_ = offsets_[seq];
    limit_ = offsets_[seq + 1];
    if (whole_row_) return;
    whole_row_ = UseWholeRowUnion(++seqs_prepared_, total_words_);
    index_.BuildUnionForRange(sc_->alphabet, whole_row_ ? 0 : base_,
                              whole_row_ ? total_bits_ : limit_,
                              &sc_->union_words);
  }

  const uint64_t* words() const { return sc_->union_words.data(); }
  size_t base() const { return base_; }
  size_t limit() const { return limit_; }

 private:
  const HybridIndex& index_;
  VerticalScratch* sc_;
  const uint64_t* offsets_;
  size_t total_bits_;
  size_t total_words_;
  bool whole_row_ = false;
  size_t seqs_prepared_ = 0;
  SeqId prepared_ = ~SeqId{0};
  size_t base_ = 0;
  size_t limit_ = 0;
};

// Collects the distinct pattern events into *alphabet (cleared first).
// Patterns are short, so the quadratic dedup beats any table.
void DistinctAlphabet(const Pattern& pattern, size_t num_events,
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
void MarkGapEvents(const EventId* arena, size_t num_events, size_t base,
                   const IterInstance& inst, EventMarkSet* gap_events) {
  gap_events->Clear();
  const size_t gap_end = base + inst.end;
  for (size_t g = base + inst.start + 1; g < gap_end; ++g) {
    if (arena[g] < num_events) gap_events->Set(arena[g]);
  }
}

// Counts one backward extension by `ev` into ws->back.
void TallyBackward(EventId ev, bool adjacent, ProjectionWorkspace* ws) {
  BackwardExtension& ext = ws->back.Slot(ev);
  ++ext.support;
  ext.all_adjacent = ext.all_adjacent && adjacent;
}

// Writes the tallied backward extensions that reach `min_count` into
// ws->back_result in ascending event order. Only the survivors are
// sorted: the touched list is compacted to them first.
const BackwardExtensionMap& DrainBackward(uint64_t min_count,
                                          ProjectionWorkspace* ws) {
  std::vector<EventId>& touched = ws->back.touched();
  size_t kept = 0;
  for (const EventId ev : touched) {
    if (ws->back.At(ev).support >= min_count) touched[kept++] = ev;
  }
  touched.resize(kept);
  std::sort(touched.begin(), touched.end());
  ws->back_result.clear();
  for (const EventId ev : touched) {
    ws->back_result.emplace_back(ev, ws->back.At(ev));
  }
  return ws->back_result;
}

}  // namespace

// Dense events enumerate their bitmap row per sequence; sparse events walk
// their sorted ID list directly — O(occurrences x log sequences) instead
// of a per-sequence scan, which is what makes low-support root expansion
// cheap on huge-alphabet corpora.
InstanceList SingleEventInstances(const HybridIndex& index, EventId ev) {
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

void ForwardExtensions(const HybridIndex& index, const Pattern& pattern,
                       const InstanceList& instances, uint64_t min_count,
                       ProjectionWorkspace* ws, ForwardExtensionMap* out) {
  VerticalScratch& sc = ws->vertical;
  const size_t num_events = index.num_events();
  const EventId* arena = index.db().arena();
  out->clear();
  // Instances [0, walked) are walked window by window; past them fewer
  // than min_count instances remain, so later instances only probe the
  // events met so far that can still reach it ("Early exit", header).
  const size_t n = instances.size();
  if (min_count > n) return;
  const size_t walked = static_cast<size_t>(n + 1 - min_count);
  DistinctAlphabet(pattern, num_events, &sc.alphabet);
  sc.forward.clear();
  sc.slots.Reset(num_events);
  ws->seen.EnsureSize(num_events);
  // One-event patterns have no gaps, so the gap set stays untouched.
  const bool has_gaps = pattern.size() > 1;
  if (has_gaps) sc.gap_events.EnsureSize(num_events);
  std::vector<EventId>& alive = sc.alive;
  const auto add = [&](EventId ev, const IterInstance& inst, size_t g,
                       size_t base) {
    ++sc.slots.Slot(ev);
    sc.forward.push_back(VerticalScratch::ForwardCandidate{
        ev, IterInstance{inst.seq, inst.start, static_cast<Pos>(g - base)}});
  };

  LazyUnionRow row(index, &sc);
  for (size_t i = 0; i < n; ++i) {
    if (i == walked) {
      alive.assign(sc.slots.touched().begin(), sc.slots.touched().end());
    }
    if (i >= walked && alive.empty()) return;  // Nothing can qualify.
    const IterInstance& inst = instances[i];
    row.Prepare(inst.seq);
    const size_t base = row.base(), limit = row.limit();
    const size_t from = base + inst.end + 1;
    // First alphabet(P) event after the instance: bounds the candidate
    // window — everything before it is out-of-alphabet by construction —
    // and is itself the unique alphabet extension endpoint.
    const size_t stop = bitrow::FirstSetAtOrAfter(row.words(), from, limit);
    const size_t window_end = stop == kNoBit ? limit : stop;
    if (i >= walked && alive.size() <= window_end - from) {
      // Probing the alive events is cheaper than walking the window. A
      // probe is the walk's outcome for one event: the stop event if it
      // is that, else its first occurrence in the window (which holds no
      // alphabet event) unless it also occurs in the gaps.
      for (const EventId ev : alive) {
        if (stop != kNoBit && arena[stop] == ev) {
          add(ev, inst, stop, base);
          continue;
        }
        const size_t g = index.FirstOfEventAtOrAfter(ev, from, window_end);
        if (g != kNoBit &&
            !(has_gaps && index.AnyOfEventInRange(ev, base + inst.start + 1,
                                                  base + inst.end))) {
          add(ev, inst, g, base);
        }
      }
    } else {
      // The walk. Past `walked` it is exact for the alive events, and
      // whatever else it counts cannot reach min_count (the drain drops
      // it).
      if (has_gaps) {
        MarkGapEvents(arena, num_events, base, inst, &sc.gap_events);
      }
      ws->seen.Clear();
      for (size_t g = from; g < window_end; ++g) {
        const EventId ev = arena[g];
        if (ev >= num_events) continue;  // Defensive; ids come from dict.
        if (index.TotalCount(ev) < min_count) continue;  // Count bound.
        if (!ws->seen.TestAndSet(ev)) continue;  // First occurrence only.
        if (has_gaps && sc.gap_events.Test(ev)) continue;
        add(ev, inst, g, base);
      }
      if (stop != kNoBit && index.TotalCount(arena[stop]) >= min_count) {
        add(arena[stop], inst, stop, base);
      }
    }
    if (i >= walked) {
      const size_t remaining = n - i - 1;
      size_t kept = 0;
      for (const EventId ev : alive) {
        if (sc.slots.At(ev) + remaining >= min_count) alive[kept++] = ev;
      }
      alive.resize(kept);
    }
  }

  // Survivors-only count-and-scatter drain: events below min_count are
  // marked dropped and compacted away first, so only the survivors are
  // sorted. Their counts give exact bucket sizes, so each bucket is
  // reserved once (no realloc churn), and the flat buffer is scattered in
  // discovery order, which within an event is instance order — the K
  // candidates are never sorted. Dropped events' candidates are skipped.
  constexpr uint32_t kDropped = ~uint32_t{0};
  std::vector<EventId>& touched = sc.slots.touched();
  size_t kept = 0;
  for (const EventId ev : touched) {
    uint32_t& slot = sc.slots.Slot(ev);
    if (slot < min_count) {
      slot = kDropped;
    } else {
      touched[kept++] = ev;
    }
  }
  if (kept == 0) return;
  touched.resize(kept);
  std::sort(touched.begin(), touched.end());
  out->entries().reserve(kept);
  for (const EventId ev : touched) {
    // Repurpose the slot as the event's entry index for the scatter.
    uint32_t& slot = sc.slots.Slot(ev);
    InstanceList bucket = ws->forward.AcquireBucket();
    bucket.reserve(slot);
    slot = static_cast<uint32_t>(out->size());
    out->emplace_back(ev, std::move(bucket));
  }
  auto& entries = out->entries();
  for (const VerticalScratch::ForwardCandidate& cand : sc.forward) {
    const uint32_t entry = sc.slots.At(cand.ev);
    if (entry != kDropped) entries[entry].second.push_back(cand.inst);
  }
}

const BackwardExtensionMap& BackwardExtensions(const HybridIndex& index,
                                               const Pattern& pattern,
                                               const InstanceList& instances,
                                               uint64_t min_count,
                                               ProjectionWorkspace* ws) {
  VerticalScratch& sc = ws->vertical;
  const size_t num_events = index.num_events();
  const EventId* arena = index.db().arena();
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

  LazyUnionRow row(index, &sc);
  for (size_t i = 0; i < n; ++i) {
    if (i == walked) {
      alive.assign(ws->back.touched().begin(), ws->back.touched().end());
    }
    if (i >= walked && alive.empty()) break;  // Nothing can qualify.
    const IterInstance& inst = instances[i];
    row.Prepare(inst.seq);
    const size_t base = row.base();
    const size_t gstart = base + inst.start;
    // Last alphabet(P) event before the instance start bounds the window;
    // it is itself the unique alphabet backward extension.
    const size_t stop = bitrow::LastSetBefore(row.words(), base, gstart);
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

bool HasUniformInfixAbsorber(const SequenceDatabase& db,
                             const Pattern& pattern,
                             const InstanceList& instances,
                             ProjectionWorkspace* ws) {
  assert(pattern.size() >= 2);
  if (instances.empty()) return false;
  const size_t num_events = db.dictionary().size();
  ws->alphabet.EnsureSize(num_events);
  ws->alphabet.Clear();
  for (EventId ev : pattern) ws->alphabet.Set(ev);
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

bool HasUniformInfixAbsorber(const SequenceDatabase& db,
                             const Pattern& pattern,
                             const InstanceList& instances) {
  ProjectionWorkspace ws;
  return HasUniformInfixAbsorber(db, pattern, instances, &ws);
}

uint64_t CountInstances(const HybridIndex& index, const Pattern& pattern,
                        QreRecountScratch* scratch) {
  if (pattern.empty()) return 0;
  if (pattern.size() == 1) {
    // Every occurrence of a single event is an instance — the index
    // already holds the count.
    return index.TotalCount(pattern[0]);
  }
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

}  // namespace specmine
