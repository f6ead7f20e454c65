#include "src/seqmine/closed_sequential_miner.h"

#include <utility>
#include <vector>

#include "src/support/cancel.h"

namespace specmine {

namespace {

struct Ctx {
  const UnitDatabase* units;
  const ClosedSeqMinerOptions* options;
  PatternSet* out;
  SeqMinerStats* stats;
  size_t num_events;
  // Reusable scratch, shared by every node of the run (and, when the
  // caller keeps it, by every run): after warmup the projection and
  // closure checks perform no heap allocation and no hashing (README.md,
  // "Index layout & threading").
  SequentialWorkspace* ws;
  bool stop = false;
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

// The embedding rows of one HasPeriodExtension call, filled lazily: a
// unit's earliest row (and, for maximum periods, its latest row) in the
// workspace's flat `ee` / `ls` is computed the first time a slot's scan
// reaches the unit. Every scan walks units in order from the first, so the
// embedded units are always a prefix, and a scan that stops early never
// pays for the embeddings it would not read.
struct PeriodRows {
  const Pattern& pattern;
  bool semi;
  size_t embedded = 0;  // Units [0, embedded) have rows.
};

// Embeds unit `idx` (== rows->embedded) into its rows; false if the
// pattern does not embed in its suffix.
bool EmbedNextUnit(Ctx* ctx, const std::vector<SeqEntry>& entries,
                   size_t idx, PeriodRows* rows) {
  const size_t n = rows->pattern.size();
  const Unit& unit = ctx->units->units()[entries[idx].unit];
  const EventSpan seq = ctx->units->db()[unit.seq];
  if (!EarliestEmbedding(rows->pattern, seq, unit.start,
                         &ctx->ws->ee[idx * n]) ||
      (!rows->semi && !LatestEmbedding(rows->pattern, seq, unit.start,
                                       &ctx->ws->ls[idx * n]))) {
    return false;
  }
  ++rows->embedded;
  return true;
}

// Returns true iff some event occurs inside the slot-th period of every
// supporting unit: the exclusive interval (ee[slot-1], hi[slot]) of the
// unit's rows, hi being `ls` for maximum periods and `ee` for semi-maximum
// ones. Counts with epoch-stamped slots, so the cost is at most the sum of
// interval lengths; it stops at the first unit that advances no event's
// count, since no event can then reach entries.size(), or that does not
// embed.
bool HasCommonPeriodEvent(Ctx* ctx, const std::vector<SeqEntry>& entries,
                          size_t slot, PeriodRows* rows) {
  const SequenceDatabase& db = ctx->units->db();
  const size_t n = rows->pattern.size();
  const std::vector<Pos>& hi = rows->semi ? ctx->ws->ee : ctx->ws->ls;
  ctx->ws->period_counts.Reset(ctx->num_events);
  for (uint32_t idx = 0; idx < entries.size(); ++idx) {
    if (idx == rows->embedded && !EmbedNextUnit(ctx, entries, idx, rows)) {
      return false;
    }
    const Unit& unit = ctx->units->units()[entries[idx].unit];
    const EventSpan seq = db[unit.seq];
    const Pos lo = (slot == 0) ? kNoPos : ctx->ws->ee[idx * n + slot - 1];
    const Pos end = hi[idx * n + slot];
    bool advanced = false;
    if (end != kNoPos) {
      Pos from = (lo == kNoPos) ? unit.start : lo + 1;
      for (Pos p = from; p < end && p < seq.size(); ++p) {
        const EventId ev = seq[p];
        if (ev >= ctx->num_events) continue;  // Defensive; ids from dict.
        uint32_t& count = ctx->ws->period_counts.Slot(ev);
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
// A unit whose suffix does not embed the pattern makes the answer false.
// Rows are embedded lazily (PeriodRows) and reused across slots; a true
// answer has scanned, and so embedded, every unit, and a unit that would
// fail to embed makes every slot's scan that reaches it false, so
// laziness never changes the answer.
bool HasPeriodExtension(Ctx* ctx, const Pattern& pattern,
                        const std::vector<SeqEntry>& entries, bool semi) {
  const size_t n = pattern.size();
  ctx->ws->ee.resize(entries.size() * n);
  if (!semi) ctx->ws->ls.resize(entries.size() * n);
  PeriodRows rows{pattern, semi};
  for (size_t slot = 0; slot < n; ++slot) {
    if (HasCommonPeriodEvent(ctx, entries, slot, &rows)) return true;
  }
  return false;
}

// True iff `pattern` has a backward extension event common to all units
// (maximum periods) — i.e. it is NOT closed on the backward side.
bool HasBackwardExtension(Ctx* ctx, const Pattern& pattern,
                          const std::vector<SeqEntry>& entries) {
  return HasPeriodExtension(ctx, pattern, entries, /*semi=*/false);
}

// BackScan: true iff the subtree rooted at `pattern` can be pruned.
bool BackScanPrunable(Ctx* ctx, const Pattern& pattern,
                      const std::vector<SeqEntry>& entries) {
  return HasPeriodExtension(ctx, pattern, entries, /*semi=*/true);
}

void Grow(Ctx* ctx, const Pattern& prefix,
          const std::vector<SeqEntry>& entries, bool at_root) {
  const CancelToken* cancel = ctx->options->cancel;
  if (cancel != nullptr && cancel->ShouldStop()) {
    ctx->stats->stopped = cancel->stop_code();
    ctx->stop = true;
    return;
  }
  ++ctx->stats->nodes_visited;
  SeqExtensionMap extensions = ctx->ws->acc.AcquireMap();
  CollectFrequentExtensions(*ctx->units, entries, at_root,
                            ctx->options->min_support, ctx->ws, &extensions);

  // A pattern is closed on the forward side iff no extension has equal
  // support. Below the root entries.size() >= min_support, so the
  // frequent-only map holds every extension that could match it.
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
  ctx->ws->acc.ReleaseMap(std::move(extensions));
}

}  // namespace

PatternSet MineClosedSequential(const UnitDatabase& units,
                                const ClosedSeqMinerOptions& options,
                                SeqMinerStats* stats,
                                SequentialWorkspace* ws) {
  SeqMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = SeqMinerStats{};
  SequentialWorkspace local_ws;
  if (ws == nullptr) ws = &local_ws;
  PatternSet out;
  Ctx ctx{&units, &options, &out, stats, units.db().dictionary().size(), ws};
  ws->root.clear();
  for (uint32_t u = 0; u < units.size(); ++u) {
    ws->root.push_back(SeqEntry{u, 0});
  }
  Pattern empty;
  Grow(&ctx, empty, ws->root, /*at_root=*/true);
  return out;
}

}  // namespace specmine
