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
  // Count pass: distinct units per event. Every touched event reaches a
  // threshold of 1, so the pass is skipped there.
  const bool filter = min_support > 1;
  if (filter) {
    ws->tally.Reset(num_events);
    for (uint32_t idx = 0; idx < entries.size(); ++idx) {
      const SeqEntry& entry = entries[idx];
      const Unit& unit = units.units()[entry.unit];
      const EventSpan seq = db[unit.seq];
      for (Pos p = at_root ? unit.start : entry.last_match + 1;
           p < seq.size(); ++p) {
        const EventId ev = seq[p];
        if (ev >= num_events) continue;  // Defensive; ids come from dict.
        SequentialWorkspace::Tally& tally = ws->tally.Slot(ev);
        if (tally.last_entry != idx + 1) {
          tally.last_entry = idx + 1;
          ++tally.units;
        }
      }
    }
  }
  // Collect pass: bucket only the events that reached min_support.
  ws->acc.Reset(num_events);
  for (const SeqEntry& entry : entries) {
    const Unit& unit = units.units()[entry.unit];
    const EventSpan seq = db[unit.seq];
    // Record only the first occurrence of each event in the suffix: one
    // projected entry per unit per extension event. Entries for a given
    // unit are appended consecutively, so checking the tail suffices.
    for (Pos p = at_root ? unit.start : entry.last_match + 1;
         p < seq.size(); ++p) {
      const EventId ev = seq[p];
      if (ev >= num_events) continue;
      if (filter && ws->tally.At(ev).units < min_support) continue;
      std::vector<SeqEntry>& proj = ws->acc.Bucket(ev);
      if (!proj.empty() && proj.back().unit == entry.unit) continue;
      proj.push_back(SeqEntry{entry.unit, p});
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
