#include "src/engine/shard_exec.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/itermine/projection.h"
#include "src/itermine/qre_verifier.h"
#include "src/support/cancel.h"
#include "src/support/stopwatch.h"
#include "src/support/thread_pool.h"

namespace specmine {

namespace {

// Proportional local threshold: the smallest integer t with
// t >= S * w / total. Pigeonhole over the additive per-shard counts
// guarantees any pattern with global count >= S reaches t in some shard.
uint64_t LocalThreshold(uint64_t global_support, uint64_t shard_weight,
                        uint64_t total_weight) {
  if (total_weight == 0) return 1;
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(global_support) * shard_weight;
  uint64_t t = static_cast<uint64_t>((scaled + total_weight - 1) /
                                     total_weight);
  return t > 1 ? t : 1;
}

// Phase-1 output of one shard: the candidate patterns in *merged* ids with
// their exact local counts, plus the prune margins that make the scan
// reusable across appends.
struct ShardResult {
  std::vector<MinedPattern> patterns;  // Merged ids, local supports.
  // For each merged event in any pruned subtree root, the minimum over
  // those roots of (global S - upper bound). Empty = the scan never
  // pruned and is complete at its local threshold.
  std::unordered_map<EventId, uint64_t> margins;
  size_t nodes_visited = 0;
  StatusCode stopped = StatusCode::kOk;  // Cancel fired inside this shard.
};

// occ[j][merged_ev]: occurrences of the event in shard j (0 when the
// event is outside shard j's alphabet). The source of the cross-shard
// instance-count bound below.
using OccurrenceTable = std::vector<std::vector<uint64_t>>;

// Sound per-shard cap on instances of a pattern touching every event in
// \p merged_ids: each instance starts at a distinct occurrence of the
// first event and contains at least one occurrence of every other, so
// count_j(P) <= min over the pattern's events of occ_j(event).
uint64_t ShardInstanceBound(const std::vector<uint64_t>& occ,
                            const std::vector<EventId>& merged_ids) {
  uint64_t bound = ~uint64_t{0};
  for (EventId ev : merged_ids) {
    bound = std::min(bound, occ[ev]);
    if (bound == 0) break;
  }
  return bound;
}

// Mines shard \p shard's candidates: a DFS at the local threshold,
// pruned by the cross-shard upper bound — a node whose local count plus
// every other shard's instance cap cannot reach the global threshold has
// no globally frequent descendant (counts only fall and alphabets only
// grow down the subtree), so the whole subtree is skipped. For modular
// corpora with (near-)disjoint shard alphabets the cross term is ~0 and
// each shard effectively mines at the full global threshold — without the
// prune, the low local thresholds the pigeonhole budget forces are
// combinatorially intractable on exactly those corpora.
//
// The prune bakes in the *other* shards' occurrence tables, which the
// next append changes, so each prune leaves evidence behind: for every
// event of the pruned root, the distance (S - upper_bound) to the global
// threshold. A cached scan is reusable only while the occurrences added
// since stay below every recorded margin (see the reuse check in
// MineShardedFull); the prune itself only removes patterns whose global
// support provably misses the threshold, so the final filtered output is
// identical with or without it.
void MineOneShard(const ShardedDatabase& set, const CountingBackend& backend,
                  size_t shard, const IterMinerOptions& options,
                  uint64_t local_threshold, const OccurrenceTable& occ,
                  ShardResult* out) {
  IterMinerOptions local = options;
  local.min_support = local_threshold;
  local.max_patterns = 0;   // Candidates must be complete.
  local.num_threads = 1;    // Parallelism lives at the shard level.
  const std::vector<EventId>& remap = set.remap(shard);
  const size_t num_shards = set.num_shards();
  std::vector<EventId> merged_ids;
  IterMinerStats stats;
  ScanFrequentIterative(
      backend, local,
      [&](const Pattern& pattern, uint64_t support) {
        merged_ids.clear();
        merged_ids.reserve(pattern.size());
        for (EventId local_ev : pattern) {
          merged_ids.push_back(remap[local_ev]);
        }
        uint64_t upper_bound = support;
        for (size_t j = 0;
             j < num_shards && upper_bound < options.min_support; ++j) {
          if (j == shard) continue;
          upper_bound += ShardInstanceBound(occ[j], merged_ids);
        }
        if (upper_bound < options.min_support) {
          // Prune the subtree, leaving its reuse evidence: the loop ran to
          // completion (the bound never reached S), so upper_bound is the
          // full cross-shard sum and the margin is exact.
          const uint64_t margin = options.min_support - upper_bound;
          for (EventId ev : merged_ids) {
            auto it = out->margins.find(ev);
            if (it == out->margins.end()) {
              out->margins.emplace(ev, margin);
            } else if (margin < it->second) {
              it->second = margin;
            }
          }
          return false;
        }
        out->patterns.push_back(MinedPattern{Pattern(merged_ids), support});
        return true;
      },
      &stats);
  out->nodes_visited = stats.nodes_visited;
  out->stopped = stats.stopped;
}

// One shard's report of a phase-1 candidate: the pattern (in that shard's
// ShardResult::patterns) with its exact local count.
struct ShardReport {
  const Pattern* pattern;
  size_t shard;
  uint64_t count;
};

}  // namespace

PatternSet MineShardedFull(const ShardedDatabase& set,
                           const std::vector<CountingBackend>& backends,
                           const IterMinerOptions& options,
                           ShardExecStats* stats, ThreadPool* pool,
                           ShardCacheIO* cache) {
  ShardExecStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = ShardExecStats{};
  Stopwatch sw;
  PatternSet out;
  const size_t num_shards = set.num_shards();
  const uint64_t total_weight = set.TotalEvents();
  if (num_shards == 0 || total_weight == 0) {
    stats->mine_seconds = sw.ElapsedSeconds();
    return out;
  }
  const size_t num_threads = ThreadPool::ResolveThreads(options.num_threads);

  // Per-shard occurrence counts by merged event id, for the cross-shard
  // instance bound (phase 1's subtree prune and phase 2's skip test).
  OccurrenceTable occ(num_shards);
  for (size_t j = 0; j < num_shards; ++j) {
    occ[j].assign(set.dictionary().size(), 0);
    const std::vector<EventId>& remap = set.remap(j);
    for (size_t local_ev = 0; local_ev < remap.size(); ++local_ev) {
      occ[j][remap[local_ev]] =
          backends[j].TotalCount(static_cast<EventId>(local_ev));
    }
  }

  // Resolve the phase-1 cache: look up each shard, validate each hit's
  // reuse evidence, then fix every local threshold up front. Cache-less
  // runs use the proportional ceiling; cache-fed runs use the frozen
  // budget split — reused entries consume their stored (t - 1) of the
  // pigeonhole budget S - 1, and the shards left to scan split the
  // remainder proportionally by event weight (floors keep the sum within
  // the remainder, so the completeness invariant
  // sum of (t_i - 1) <= S - 1  holds across append epochs).
  const bool caching =
      cache != nullptr && cache->shard_digests.size() == num_shards;
  std::vector<const Phase1CacheEntry*> hits(num_shards, nullptr);
  std::vector<uint64_t> remap_digests(num_shards, 0);
  std::vector<uint64_t> legacy(num_shards, 1);
  for (size_t i = 0; i < num_shards; ++i) {
    legacy[i] = LocalThreshold(options.min_support,
                               set.shard(i).TotalEvents(), total_weight);
  }
  std::vector<uint64_t> thresholds = legacy;
  uint64_t options_fp = 0;
  if (caching) {
    options_fp =
        Phase1OptionsFingerprint(options.min_support, options.max_length);

    // An entry's prune omissions were justified against the corpus it was
    // scanned in (the cross-shard bound reads the other shards). It is
    // reusable here only if (a) every shard of that epoch is still
    // present — digests matched as a multiset, so a duplicated shard
    // cannot mask an absent one — and (b) for every margined event, the
    // occurrences the post-epoch shards add stay strictly below the
    // recorded margin. A pruned root p gains at most
    // min over its events of occ_added(event) instances from new shards
    // (each instance consumes a distinct occurrence of every event), and
    // its descendants gain no more, so (b) keeps every pruned pattern
    // provably below the global threshold in the current corpus.
    auto reusable = [&](const Phase1CacheEntry& entry) {
      std::unordered_map<uint64_t, int> pending;
      for (uint64_t d : entry.epoch_digests) ++pending[d];
      std::vector<bool> in_epoch(num_shards, false);
      size_t matched = 0;
      for (size_t j = 0; j < num_shards; ++j) {
        auto it = pending.find(cache->shard_digests[j]);
        if (it != pending.end() && it->second > 0) {
          --it->second;
          in_epoch[j] = true;
          ++matched;
        }
      }
      if (matched != entry.epoch_digests.size()) return false;
      for (const Phase1PruneMargin& m : entry.margins) {
        if (m.event >= set.dictionary().size()) return false;
        uint64_t added = 0;
        for (size_t j = 0; j < num_shards; ++j) {
          if (in_epoch[j]) continue;
          added += occ[j][m.event];
          if (added >= m.margin) return false;
        }
      }
      return true;
    };
    for (size_t i = 0; i < num_shards; ++i) {
      remap_digests[i] = RemapDigest(set.remap(i));
      if (cache->loaded != nullptr) {
        const Phase1CacheEntry* entry = cache->loaded->Find(
            cache->shard_digests[i], remap_digests[i], options_fp);
        if (entry != nullptr && reusable(*entry)) hits[i] = entry;
      }
    }
    const uint64_t budget =
        options.min_support > 0 ? options.min_support - 1 : 0;
    // Two attempts: reuse what the budget allows, but when accumulated
    // entries leave so little budget that a scanned shard would run far
    // below its proportional threshold (scan cost grows steeply as the
    // threshold falls), drop every hit and rescan the whole set instead —
    // a near-proportional full scan that also resets the budget split for
    // future appends.
    for (int attempt = 0; attempt < 2; ++attempt) {
      uint64_t consumed = 0;
      for (const Phase1CacheEntry* hit : hits) {
        if (hit != nullptr) consumed += hit->threshold - 1;
      }
      if (consumed > budget) {
        // Entries that overspend the budget cannot all be sound together
        // (they were not written by this scheme); scan everything instead.
        std::fill(hits.begin(), hits.end(), nullptr);
        consumed = 0;
      }
      uint64_t scan_weight = 0;
      for (size_t i = 0; i < num_shards; ++i) {
        if (hits[i] == nullptr) scan_weight += set.shard(i).TotalEvents();
      }
      const uint64_t leftover = budget - consumed;
      bool degenerate = false;
      for (size_t i = 0; i < num_shards; ++i) {
        if (hits[i] != nullptr) {
          thresholds[i] = hits[i]->threshold;
          continue;
        }
        thresholds[i] = 1;
        if (scan_weight > 0) {
          const unsigned __int128 scaled =
              static_cast<unsigned __int128>(leftover) *
              set.shard(i).TotalEvents();
          thresholds[i] = 1 + static_cast<uint64_t>(scaled / scan_weight);
        }
        if (thresholds[i] < (legacy[i] + 1) / 2) degenerate = true;
      }
      if (!degenerate || attempt == 1) break;
      std::fill(hits.begin(), hits.end(), nullptr);
    }
  }

  // Phase 1: every shard mined independently, one job per shard on the
  // session pool. Results land in per-shard slots, so the outcome is
  // identical at every thread count. A cache hit replays the stored scan
  // instead of running the DFS.
  std::vector<ShardResult> results(num_shards);
  auto mine_shard = [&](size_t i) {
    if (hits[i] != nullptr) {
      results[i].patterns = hits[i]->patterns;
      return;
    }
    MineOneShard(set, backends[i], i, options, thresholds[i], occ,
                 &results[i]);
  };
  stats->error =
      ThreadPool::ParallelForShared(pool, num_threads, num_shards, mine_shard);
  if (!stats->error.ok()) {
    stats->mine_seconds = sw.ElapsedSeconds();
    return out;
  }
  // A token that fired during phase 1 leaves some shard's candidate set
  // incomplete; the only output that is still a prefix of the canonical
  // order is the empty one.
  for (const ShardResult& result : results) {
    if (result.stopped != StatusCode::kOk) stats->stopped = result.stopped;
  }
  if (options.cancel != nullptr && options.cancel->fired()) {
    stats->stopped = options.cancel->stop_code();
  }
  stats->shard_scans.resize(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    ShardScanStat& scan = stats->shard_scans[i];
    scan.cached = hits[i] != nullptr;
    scan.threshold = thresholds[i];
    scan.nodes_visited = results[i].nodes_visited;
    scan.local_patterns = results[i].patterns.size();
    if (scan.cached) {
      ++stats->shards_cached;
    } else {
      ++stats->shards_scanned;
    }
  }
  if (stats->stopped != StatusCode::kOk) {
    stats->mine_seconds = sw.ElapsedSeconds();
    return out;
  }

  // Shards whose scan (or replayed entry) never pruned ran a complete DFS
  // at thresholds[i]: absence from their output proves the local count is
  // below the threshold, which phase 2 exploits below. A pruned scan
  // proves no such thing — the absent pattern may have been pruned with a
  // count at or above the threshold.
  std::vector<bool> scan_complete(num_shards, false);
  for (size_t i = 0; i < num_shards; ++i) {
    scan_complete[i] =
        caching && (hits[i] != nullptr ? hits[i]->margins.empty()
                                       : results[i].margins.empty());
  }

  // Candidate table: every shard's reports in one array ordered by
  // (merged ids, shard), so the reports of one distinct pattern form one
  // run — a candidate — that ascends by shard. Lexicographic merged-id
  // order is exactly the DFS preorder the single-pass miner emits in
  // (children ascend by event id, prefixes precede extensions).
  for (const ShardResult& result : results) {
    stats->nodes_visited += result.nodes_visited;
    stats->local_patterns += result.patterns.size();
  }
  std::vector<ShardReport> reports;
  reports.reserve(stats->local_patterns);
  for (size_t i = 0; i < num_shards; ++i) {
    for (const MinedPattern& item : results[i].patterns) {
      reports.push_back(ShardReport{&item.pattern, i, item.support});
    }
  }
  auto report_order = [](const ShardReport& a, const ShardReport& b) {
    return std::tie(*a.pattern, a.shard) < std::tie(*b.pattern, b.shard);
  };
  std::sort(reports.begin(), reports.end(), report_order);
  // Candidate c's reports are reports[run_begin[c], run_begin[c + 1]).
  std::vector<size_t> run_begin;
  for (size_t r = 0; r < reports.size(); ++r) {
    if (r == 0 || *reports[r].pattern != *reports[r - 1].pattern) {
      run_begin.push_back(r);
    }
  }
  const size_t num_candidates = run_begin.size();
  run_begin.push_back(reports.size());
  stats->candidates = num_candidates;

  // Per-event shard postings from the occurrence table: postings[ev]
  // lists, ascending, the shards where merged event ev occurs. A shard
  // missing from any of a candidate's lists has occurrence cap 0 there —
  // it adds nothing to the bound and is never recounted — so phase 2
  // walks only the shortest.
  const size_t num_events = set.dictionary().size();
  std::vector<std::vector<size_t>> postings(num_events);
  for (size_t j = 0; j < num_shards; ++j) {
    for (EventId ev : set.remap(j)) {
      if (occ[j][ev] > 0) postings[ev].push_back(j);
    }
  }

  // Phase 2: exact global supports. Reported counts are exact; every other
  // shard on the candidate's shortest posting list is first bounded by the
  // occurrence cap — a zero cap (some candidate event absent from the
  // shard) costs nothing, and a candidate whose exact-plus-bounded total
  // cannot reach the threshold is dropped without any oracle scan. Only
  // the remaining pairs are recounted exactly with the QRE oracle.
  std::vector<std::vector<EventId>> to_local(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    to_local[i].assign(num_events, kInvalidEvent);
    const std::vector<EventId>& remap = set.remap(i);
    for (size_t local_ev = 0; local_ev < remap.size(); ++local_ev) {
      to_local[i][remap[local_ev]] = static_cast<EventId>(local_ev);
    }
  }
  std::vector<uint64_t> totals(num_candidates, 0);
  std::atomic<size_t> recounts{0};
  std::atomic<size_t> bound_skips{0};
  auto count_candidate = [&](size_t c) {
    // A fired token skips the remaining recounts; the run then returns the
    // empty prefix below rather than a support-incomplete subset.
    if (options.cancel != nullptr && options.cancel->ShouldStop()) return;
    const size_t run_end = run_begin[c + 1];
    const Pattern& pattern = *reports[run_begin[c]].pattern;
    // Workers run candidates concurrently, so the scratch is per thread,
    // not per candidate: once a worker's buffers have grown, only an
    // oracle recount allocates (its Pattern).
    thread_local QreRecountScratch recount;
    thread_local std::vector<size_t> recount_shards;
    thread_local std::vector<EventId> local_ids;
    uint64_t known = 0;
    for (size_t r = run_begin[c]; r < run_end; ++r) known += reports[r].count;
    EventId rarest = pattern.first();
    for (EventId ev : pattern) {
      if (postings[ev].size() < postings[rarest].size()) rarest = ev;
    }
    // Both the posting list and the candidate's reports ascend by shard,
    // so one merged walk skips the shards whose count is already exact.
    uint64_t bounded = 0;
    recount_shards.clear();
    size_t r = run_begin[c];
    for (size_t i : postings[rarest]) {
      while (r < run_end && reports[r].shard < i) ++r;
      if (r < run_end && reports[r].shard == i) continue;
      uint64_t bound = ShardInstanceBound(occ[i], pattern.events());
      if (scan_complete[i]) {
        // This shard's scan (or replayed entry) was complete at
        // thresholds[i], so absence from its output proves
        // count_i <= thresholds[i] - 1 — often 0, which skips the oracle
        // recount outright.
        bound = std::min(bound, thresholds[i] - 1);
      }
      if (bound == 0) continue;
      bounded += bound;
      recount_shards.push_back(i);
    }
    if (known + bounded < options.min_support) {
      bound_skips.fetch_add(1, std::memory_order_relaxed);
      totals[c] = 0;  // Provably below threshold; never emitted.
      return;
    }
    uint64_t total = known;
    local_ids.resize(pattern.size());
    for (size_t i : recount_shards) {
      // A nonzero cap implies every candidate event occurs in (so is
      // interned by) shard i's dictionary — the remap below cannot miss.
      for (size_t k = 0; k < pattern.size(); ++k) {
        local_ids[k] = to_local[i][pattern[k]];
      }
      recounts.fetch_add(1, std::memory_order_relaxed);
      total += CountInstances(backends[i], Pattern(local_ids), &recount);
    }
    totals[c] = total;
  };
  stats->error = ThreadPool::ParallelForShared(pool, num_threads,
                                               num_candidates, count_candidate);
  if (!stats->error.ok()) {
    stats->mine_seconds = sw.ElapsedSeconds();
    return out;
  }
  stats->bound_skips = bound_skips.load();
  stats->recounts = recounts.load();
  if (options.cancel != nullptr && options.cancel->fired()) {
    stats->stopped = options.cancel->stop_code();
    stats->mine_seconds = sw.ElapsedSeconds();
    return out;  // Empty prefix: some totals may be incomplete.
  }

  // Phase 3: the global filter, in the already-canonical order. Every
  // total is exact here, so stopping mid-loop yields a true prefix of the
  // single-pass emission order.
  for (size_t c = 0; c < num_candidates; ++c) {
    if (options.cancel != nullptr && options.cancel->ShouldStop()) {
      stats->stopped = options.cancel->stop_code();
      break;
    }
    if (totals[c] >= options.min_support) {
      out.Add(*reports[run_begin[c]].pattern, totals[c]);
    }
  }

  // Hand back the refreshed cache — the entries for exactly the current
  // shards, hits and fresh scans alike. Only a clean, unstopped run is
  // persistable: a cancelled scan's candidate set is incomplete and must
  // never be reused. (Moving results[i].patterns is safe here: phase 3 is
  // done with the candidate table, whose patterns point into them.)
  if (caching && cache->updated != nullptr &&
      stats->stopped == StatusCode::kOk) {
    cache->updated->entries.clear();
    cache->updated->entries.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      Phase1CacheEntry entry;
      entry.shard_digest = cache->shard_digests[i];
      entry.remap_digest = remap_digests[i];
      entry.options_fingerprint = options_fp;
      entry.threshold = thresholds[i];
      if (hits[i] != nullptr) {
        // A replayed entry keeps its original epoch and margins: its
        // prune omissions are relative to the corpus it was scanned
        // against, and the reuse check re-validates them on every load.
        entry.epoch_digests = hits[i]->epoch_digests;
        entry.margins = hits[i]->margins;
      } else {
        entry.epoch_digests = cache->shard_digests;
        entry.margins.reserve(results[i].margins.size());
        for (const auto& margin : results[i].margins) {
          entry.margins.push_back(
              Phase1PruneMargin{margin.first, margin.second});
        }
        std::sort(entry.margins.begin(), entry.margins.end(),
                  [](const Phase1PruneMargin& a, const Phase1PruneMargin& b) {
                    return a.event < b.event;
                  });
      }
      entry.patterns = std::move(results[i].patterns);
      cache->updated->entries.push_back(std::move(entry));
    }
  }
  stats->mine_seconds = sw.ElapsedSeconds();
  return out;
}

}  // namespace specmine
