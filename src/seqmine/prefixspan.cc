#include "src/seqmine/prefixspan.h"

#include <algorithm>

#include "src/support/cancel.h"

namespace specmine {

UnitDatabase UnitDatabase::WholeSequences(const SequenceDatabase& db) {
  std::vector<Unit> units;
  units.reserve(db.size());
  for (SeqId s = 0; s < db.size(); ++s) units.push_back(Unit{s, 0});
  return UnitDatabase(db, std::move(units));
}

void CollectFrequentExtensions(const UnitDatabase& units,
                               const std::vector<SeqEntry>& entries,
                               bool at_root, uint64_t min_support,
                               SequentialWorkspace* ws, SeqExtensionMap* out) {
  const SequenceDatabase& db = units.db();
  const size_t num_events = db.dictionary().size();
  const auto suffix_begin = [&](const SeqEntry& entry, const Unit& unit) {
    return at_root ? unit.start : entry.last_match + 1;
  };
  if (min_support <= 1) {
    // Every touched event reaches a threshold of 1: bucket everything.
    // Record only the first occurrence of each event in the suffix: one
    // projected entry per unit per extension event. Entries for a given
    // unit are appended consecutively, so checking the tail suffices.
    ws->acc.Reset(num_events);
    for (const SeqEntry& entry : entries) {
      const Unit& unit = units.units()[entry.unit];
      const EventSpan seq = db[unit.seq];
      for (Pos p = suffix_begin(entry, unit); p < seq.size(); ++p) {
        const EventId ev = seq[p];
        if (ev >= num_events) continue;  // Defensive; ids come from dict.
        std::vector<SeqEntry>& proj = ws->acc.Bucket(ev);
        if (!proj.empty() && proj.back().unit == entry.unit) continue;
        proj.push_back(SeqEntry{entry.unit, p});
      }
    }
    ws->acc.Drain(out);
    return;
  }

  // Count pass: distinct units per event. Entries [0, walked) are scanned
  // in full; past them fewer than min_support entries remain, so an event
  // first met there cannot qualify, and each later suffix is scanned only
  // for the events still alive — until all of them are seen, and not at
  // all once none is left.
  out->clear();
  const size_t n = entries.size();
  if (min_support > n) return;
  const size_t walked = static_cast<size_t>(n + 1 - min_support);
  ws->tally.Reset(num_events);
  const auto count = [&](EventId ev, uint32_t idx) {
    SequentialWorkspace::Tally& tally = ws->tally.Slot(ev);
    if (tally.last_entry == idx + 1) return false;
    tally.last_entry = idx + 1;
    ++tally.units;
    return true;
  };
  for (uint32_t idx = 0; idx < walked; ++idx) {
    const SeqEntry& entry = entries[idx];
    const Unit& unit = units.units()[entry.unit];
    const EventSpan seq = db[unit.seq];
    for (Pos p = suffix_begin(entry, unit); p < seq.size(); ++p) {
      const EventId ev = seq[p];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      count(ev, idx);
    }
  }
  std::vector<EventId>& alive = ws->alive;
  EventMarkSet& marks = ws->marks;
  marks.EnsureSize(num_events);
  const auto mark_all = [&marks](const std::vector<EventId>& events) {
    marks.Clear();
    for (const EventId ev : events) marks.Set(ev);
  };
  alive.assign(ws->tally.touched().begin(), ws->tally.touched().end());
  mark_all(alive);
  for (uint32_t idx = walked; idx < n && !alive.empty(); ++idx) {
    const SeqEntry& entry = entries[idx];
    const Unit& unit = units.units()[entry.unit];
    const EventSpan seq = db[unit.seq];
    size_t seen = 0;
    for (Pos p = suffix_begin(entry, unit);
         p < seq.size() && seen < alive.size(); ++p) {
      const EventId ev = seq[p];
      if (ev < num_events && marks.Test(ev) && count(ev, idx)) ++seen;
    }
    const size_t remaining = n - idx - 1;
    size_t kept = 0;
    for (const EventId ev : alive) {
      if (ws->tally.At(ev).units + remaining >= min_support) {
        alive[kept++] = ev;
      }
    }
    if (kept != alive.size()) {
      alive.resize(kept);
      mark_all(alive);
    }
  }

  // Collect pass: bucket only the events that reached min_support, each
  // unit's first occurrence (as above), and leave a suffix once every
  // frequent event is bucketed for its unit.
  alive.clear();
  for (const EventId ev : ws->tally.touched()) {
    if (ws->tally.At(ev).units >= min_support) alive.push_back(ev);
  }
  if (alive.empty()) return;
  mark_all(alive);
  ws->acc.Reset(num_events);
  for (const SeqEntry& entry : entries) {
    const Unit& unit = units.units()[entry.unit];
    const EventSpan seq = db[unit.seq];
    size_t found = 0;
    for (Pos p = suffix_begin(entry, unit);
         p < seq.size() && found < alive.size(); ++p) {
      const EventId ev = seq[p];
      if (ev >= num_events || !marks.Test(ev)) continue;
      std::vector<SeqEntry>& proj = ws->acc.Bucket(ev);
      if (!proj.empty() && proj.back().unit == entry.unit) continue;
      proj.push_back(SeqEntry{entry.unit, p});
      ++found;
    }
  }
  ws->acc.Drain(out);
}

namespace {

struct MinerContext {
  const UnitDatabase* units;
  const SeqMinerOptions* options;
  const std::function<bool(const Pattern&, uint64_t,
                           const std::vector<uint32_t>&)>* sink;
  SeqMinerStats* stats;
  // After warmup the projection loop performs no heap allocation
  // (README.md, "Index layout & threading").
  SequentialWorkspace* ws;
  bool stop = false;
};

void Grow(MinerContext* ctx, Pattern* prefix,
          const std::vector<SeqEntry>& projection, bool at_root) {
  if (ctx->stop) return;
  const CancelToken* cancel = ctx->options->cancel;
  if (cancel != nullptr && cancel->ShouldStop()) {
    ctx->stats->stopped = cancel->stop_code();
    ctx->stop = true;
    return;
  }
  ++ctx->stats->nodes_visited;
  SequentialWorkspace* ws = ctx->ws;
  SeqExtensionMap extensions = ws->acc.AcquireMap();
  CollectFrequentExtensions(*ctx->units, projection, at_root,
                            ctx->options->min_support, ws, &extensions);
  for (auto& [ev, proj] : extensions) {
    if (ctx->stop) break;
    const uint64_t support = proj.size();
    Pattern candidate = prefix->Extend(ev);
    ws->supporting.clear();
    ws->supporting.reserve(proj.size());
    for (const SeqEntry& e : proj) ws->supporting.push_back(e.unit);
    ++ctx->stats->patterns_emitted;
    bool grow_subtree = (*ctx->sink)(candidate, support, ws->supporting);
    if (ctx->options->max_patterns != 0 &&
        ctx->stats->patterns_emitted >= ctx->options->max_patterns) {
      ctx->stats->truncated = true;
      ctx->stop = true;
      break;
    }
    if (!grow_subtree) continue;
    if (ctx->options->max_length != 0 &&
        candidate.size() >= ctx->options->max_length) {
      continue;
    }
    Grow(ctx, &candidate, proj, /*at_root=*/false);
  }
  ws->acc.ReleaseMap(std::move(extensions));
}

}  // namespace

void ScanFrequentSequential(
    const UnitDatabase& units, const SeqMinerOptions& options,
    const std::function<bool(const Pattern&, uint64_t,
                             const std::vector<uint32_t>&)>& sink,
    SeqMinerStats* stats, SequentialWorkspace* ws) {
  SeqMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = SeqMinerStats{};
  SequentialWorkspace local_ws;
  if (ws == nullptr) ws = &local_ws;
  MinerContext ctx{&units, &options, &sink, stats, ws};
  ws->root.clear();
  for (uint32_t u = 0; u < units.size(); ++u) {
    ws->root.push_back(SeqEntry{u, 0});
  }
  Pattern empty;
  Grow(&ctx, &empty, ws->root, /*at_root=*/true);
}

}  // namespace specmine
