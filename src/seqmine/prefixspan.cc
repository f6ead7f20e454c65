#include "src/seqmine/prefixspan.h"

#include <algorithm>

#include "src/support/cancel.h"
#include "src/support/extension_accumulator.h"
#include "src/support/flat_event_map.h"

namespace specmine {

UnitDatabase UnitDatabase::WholeSequences(const SequenceDatabase& db) {
  std::vector<Unit> units;
  units.reserve(db.size());
  for (SeqId s = 0; s < db.size(); ++s) units.push_back(Unit{s, 0});
  return UnitDatabase(db, std::move(units));
}

namespace {

// One live unit within the current projection: the unit index and the
// absolute position in its sequence just *after* which the next pattern
// event must be found. kNoPos at the root means "scan from unit.start".
struct Entry {
  uint32_t unit;
  Pos last_match;  // Position of the last matched event.
};

using ExtensionMap = EventMap<std::vector<Entry>>;

struct MinerContext {
  const UnitDatabase* units;
  const SeqMinerOptions* options;
  const std::function<bool(const Pattern&, uint64_t,
                           const std::vector<uint32_t>&)>* sink;
  SeqMinerStats* stats;
  // Dense reusable grouping buckets plus a shell pool: after warmup the
  // projection loop performs no heap allocation (README.md, "Index layout
  // & threading").
  ExtensionAccumulator<Entry> acc;
  std::vector<ExtensionMap> map_pool;
  std::vector<uint32_t> supporting;  // Reused sink argument buffer.
  bool stop = false;

  ExtensionMap AcquireMap() {
    if (map_pool.empty()) return ExtensionMap();
    ExtensionMap m = std::move(map_pool.back());
    map_pool.pop_back();
    return m;
  }
  void ReleaseMap(ExtensionMap&& m) {
    acc.Recycle(std::move(m));
    map_pool.push_back(std::move(m));
  }
};

// Collects, for every event e, the projected entries of P++<e>. Iteration
// over the drained map is in ascending event id, so extension order stays
// deterministic.
void CollectExtensions(MinerContext* ctx,
                       const std::vector<Entry>& projection, bool at_root,
                       ExtensionMap* extensions) {
  const SequenceDatabase& db = ctx->units->db();
  const size_t num_events = db.dictionary().size();
  ctx->acc.Reset(num_events);
  for (const Entry& entry : projection) {
    const Unit& unit = ctx->units->units()[entry.unit];
    const EventSpan seq = db[unit.seq];
    Pos from = at_root ? unit.start : entry.last_match + 1;
    // Record only the first occurrence of each event in the suffix: one
    // projected entry per unit per extension event. Entries for a given
    // unit are appended consecutively, so checking the tail suffices.
    for (Pos p = from; p < seq.size(); ++p) {
      EventId ev = seq[p];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      std::vector<Entry>& proj = ctx->acc.Bucket(ev);
      if (!proj.empty() && proj.back().unit == entry.unit) continue;
      proj.push_back(Entry{entry.unit, p});
    }
  }
  ctx->acc.Drain(extensions);
}

void Grow(MinerContext* ctx, Pattern* prefix,
          const std::vector<Entry>& projection, bool at_root) {
  if (ctx->stop) return;
  const CancelToken* cancel = ctx->options->cancel;
  if (cancel != nullptr && cancel->ShouldStop()) {
    ctx->stats->stopped = cancel->stop_code();
    ctx->stop = true;
    return;
  }
  ++ctx->stats->nodes_visited;
  ExtensionMap extensions = ctx->AcquireMap();
  CollectExtensions(ctx, projection, at_root, &extensions);
  for (auto& [ev, proj] : extensions) {
    if (ctx->stop) break;
    uint64_t support = proj.size();
    if (support < ctx->options->min_support) continue;
    Pattern candidate = prefix->Extend(ev);
    ctx->supporting.clear();
    ctx->supporting.reserve(proj.size());
    for (const Entry& e : proj) ctx->supporting.push_back(e.unit);
    ++ctx->stats->patterns_emitted;
    bool grow_subtree = (*ctx->sink)(candidate, support, ctx->supporting);
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
  ctx->ReleaseMap(std::move(extensions));
}

}  // namespace

void ScanFrequentSequential(
    const UnitDatabase& units, const SeqMinerOptions& options,
    const std::function<bool(const Pattern&, uint64_t,
                             const std::vector<uint32_t>&)>& sink,
    SeqMinerStats* stats) {
  SeqMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = SeqMinerStats{};
  MinerContext ctx;
  ctx.units = &units;
  ctx.options = &options;
  ctx.sink = &sink;
  ctx.stats = stats;
  std::vector<Entry> root;
  root.reserve(units.size());
  for (uint32_t u = 0; u < units.size(); ++u) root.push_back(Entry{u, 0});
  Pattern empty;
  Grow(&ctx, &empty, root, /*at_root=*/true);
}

}  // namespace specmine
