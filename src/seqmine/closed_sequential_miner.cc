#include "src/seqmine/closed_sequential_miner.h"

#include <utility>
#include <vector>

#include "src/support/cancel.h"
#include "src/support/event_marks.h"
#include "src/support/extension_accumulator.h"
#include "src/support/flat_event_map.h"

namespace specmine {

namespace {

struct Entry {
  uint32_t unit;
  Pos last_match;
};

using ExtensionMap = EventMap<std::vector<Entry>>;

struct Ctx {
  const UnitDatabase* units;
  const ClosedSeqMinerOptions* options;
  PatternSet* out;
  SeqMinerStats* stats;
  size_t num_events = 0;
  // Reusable scratch, shared by every node of the run: after warmup the
  // projection and closure checks perform no heap allocation and no
  // hashing (README.md, "Index layout & threading").
  ExtensionAccumulator<Entry> acc;
  std::vector<ExtensionMap> map_pool;
  EpochSlots<uint32_t> counts;  // Period-event counts, one epoch per slot.
  std::vector<Pos> ee;          // Earliest embeddings, n positions per unit.
  std::vector<Pos> ls;          // Latest embeddings, n positions per unit.
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

// Greedy earliest embedding of `pattern` into seq[begin..]; fills ee[i] with
// the position matching pattern[i]. Returns false if not embeddable.
bool EarliestEmbedding(const Pattern& pattern, EventSpan seq, Pos begin,
                       Pos* ee) {
  const size_t n = pattern.size();
  size_t k = 0;
  for (Pos p = begin; p < seq.size() && k < n; ++p) {
    if (seq[p] == pattern[k]) ee[k++] = p;
  }
  return k == n;
}

// Greedy latest embedding of `pattern` into seq[begin..]; fills ls[i] with
// the position matching pattern[i]. Returns false if not embeddable.
bool LatestEmbedding(const Pattern& pattern, EventSpan seq, Pos begin,
                     Pos* ls) {
  size_t k = pattern.size();
  for (Pos p = static_cast<Pos>(seq.size()); p-- > begin && k > 0;) {
    if (seq[p] == pattern[k - 1]) ls[--k] = p;
    if (p == 0) break;
  }
  return k == 0;
}

// Returns true iff some event occurs inside the slot-th period of every
// supporting unit: the exclusive interval (ee[slot-1], hi[slot]) of the
// unit's row in ctx->ee and `hi`. Counts with epoch-stamped slots, so the
// cost is at most the sum of interval lengths; it stops at the first unit
// that advances no event's count, since no event can then reach
// entries.size().
bool HasCommonPeriodEvent(Ctx* ctx, const std::vector<Entry>& entries,
                          size_t n, size_t slot, const std::vector<Pos>& hi) {
  const SequenceDatabase& db = ctx->units->db();
  ctx->counts.Reset(ctx->num_events);
  for (uint32_t idx = 0; idx < entries.size(); ++idx) {
    const Unit& unit = ctx->units->units()[entries[idx].unit];
    const EventSpan seq = db[unit.seq];
    const Pos lo = (slot == 0) ? kNoPos : ctx->ee[idx * n + slot - 1];
    const Pos end = hi[idx * n + slot];
    bool advanced = false;
    if (end != kNoPos) {
      Pos from = (lo == kNoPos) ? unit.start : lo + 1;
      for (Pos p = from; p < end && p < seq.size(); ++p) {
        const EventId ev = seq[p];
        if (ev >= ctx->num_events) continue;  // Defensive; ids from dict.
        uint32_t& count = ctx->counts.Slot(ev);
        if (count == idx) {
          count = idx + 1;
          advanced = true;
        }
      }
    }
    if (!advanced) return false;
  }
  return !entries.empty();
}

// True iff some slot i in [0, n) has an event common to the slot-i periods
// of all supporting units, where the slot-i period of a unit is
//  * maximum period      (ee[i-1], ls[i])  when semi == false (closure),
//  * semi-maximum period (ee[i-1], ee[i])  when semi == true  (BackScan).
// Embeddings are computed once per unit into the flat ctx->ee / ctx->ls
// rows and reused across slots.
bool HasPeriodExtension(Ctx* ctx, const Pattern& pattern,
                        const std::vector<Entry>& entries, bool semi) {
  const SequenceDatabase& db = ctx->units->db();
  const size_t n = pattern.size();
  ctx->ee.resize(entries.size() * n);
  if (!semi) ctx->ls.resize(entries.size() * n);
  for (size_t idx = 0; idx < entries.size(); ++idx) {
    const Unit& unit = ctx->units->units()[entries[idx].unit];
    const EventSpan seq = db[unit.seq];
    if (!EarliestEmbedding(pattern, seq, unit.start, &ctx->ee[idx * n])) {
      return false;
    }
    if (!semi &&
        !LatestEmbedding(pattern, seq, unit.start, &ctx->ls[idx * n])) {
      return false;
    }
  }
  const std::vector<Pos>& hi = semi ? ctx->ee : ctx->ls;
  for (size_t slot = 0; slot < n; ++slot) {
    if (HasCommonPeriodEvent(ctx, entries, n, slot, hi)) return true;
  }
  return false;
}

// True iff `pattern` has a backward extension event common to all units
// (maximum periods) — i.e. it is NOT closed on the backward side.
bool HasBackwardExtension(Ctx* ctx, const Pattern& pattern,
                          const std::vector<Entry>& entries) {
  return HasPeriodExtension(ctx, pattern, entries, /*semi=*/false);
}

// BackScan: true iff the subtree rooted at `pattern` can be pruned.
bool BackScanPrunable(Ctx* ctx, const Pattern& pattern,
                      const std::vector<Entry>& entries) {
  return HasPeriodExtension(ctx, pattern, entries, /*semi=*/true);
}

// Groups, for every event e, the projected entries of prefix++<e>: one
// entry per unit, at the first occurrence of e in the unit's remaining
// suffix. The drained map iterates in ascending event id.
void CollectExtensions(Ctx* ctx, const std::vector<Entry>& entries,
                       bool at_root, ExtensionMap* extensions) {
  const SequenceDatabase& db = ctx->units->db();
  ctx->acc.Reset(ctx->num_events);
  for (const Entry& entry : entries) {
    const Unit& unit = ctx->units->units()[entry.unit];
    const EventSpan seq = db[unit.seq];
    Pos from = at_root ? unit.start : entry.last_match + 1;
    for (Pos p = from; p < seq.size(); ++p) {
      EventId ev = seq[p];
      if (ev >= ctx->num_events) continue;  // Defensive; ids from dict.
      std::vector<Entry>& proj = ctx->acc.Bucket(ev);
      if (!proj.empty() && proj.back().unit == entry.unit) continue;
      proj.push_back(Entry{entry.unit, p});
    }
  }
  ctx->acc.Drain(extensions);
}

void Grow(Ctx* ctx, const Pattern& prefix, const std::vector<Entry>& entries,
          bool at_root) {
  const CancelToken* cancel = ctx->options->cancel;
  if (cancel != nullptr && cancel->ShouldStop()) {
    ctx->stats->stopped = cancel->stop_code();
    ctx->stop = true;
    return;
  }
  ++ctx->stats->nodes_visited;
  ExtensionMap extensions = ctx->AcquireMap();
  CollectExtensions(ctx, entries, at_root, &extensions);

  // A pattern is closed on the forward side iff no extension has equal
  // support.
  bool forward_closed = true;
  if (!at_root) {
    for (const auto& [ev, proj] : extensions) {
      if (proj.size() == entries.size()) {
        forward_closed = false;
        break;
      }
    }
    if (forward_closed && !HasBackwardExtension(ctx, prefix, entries)) {
      ctx->out->Add(prefix, entries.size());
      ++ctx->stats->patterns_emitted;
    }
  }

  for (const auto& [ev, proj] : extensions) {
    if (ctx->stop) break;
    if (proj.size() < ctx->options->min_support) continue;
    Pattern candidate = prefix.Extend(ev);
    if (ctx->options->max_length != 0 &&
        candidate.size() > ctx->options->max_length) {
      continue;
    }
    if (ctx->options->backscan_pruning &&
        BackScanPrunable(ctx, candidate, proj)) {
      continue;
    }
    Grow(ctx, candidate, proj, /*at_root=*/false);
  }
  ctx->ReleaseMap(std::move(extensions));
}

}  // namespace

PatternSet MineClosedSequential(const UnitDatabase& units,
                                const ClosedSeqMinerOptions& options,
                                SeqMinerStats* stats) {
  SeqMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = SeqMinerStats{};
  PatternSet out;
  Ctx ctx;
  ctx.units = &units;
  ctx.options = &options;
  ctx.out = &out;
  ctx.stats = stats;
  ctx.num_events = units.db().dictionary().size();
  std::vector<Entry> root;
  root.reserve(units.size());
  for (uint32_t u = 0; u < units.size(); ++u) root.push_back(Entry{u, 0});
  Pattern empty;
  Grow(&ctx, empty, root, /*at_root=*/true);
  return out;
}

}  // namespace specmine
