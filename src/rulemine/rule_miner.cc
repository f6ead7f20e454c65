#include "src/rulemine/rule_miner.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "src/rulemine/consequent_miner.h"
#include "src/rulemine/premise_miner.h"
#include "src/seqmine/occurrence_engine.h"
#include "src/support/cancel.h"
#include "src/support/thread_pool.h"

namespace specmine {

namespace {

// Steps 3-4 input for one premise, mined by a worker: every candidate
// rule of the premise, fully populated. Merging job outputs in premise
// order reproduces the sequential candidate order exactly.
struct PremiseJob {
  Pattern premise;
  TemporalPointSet points;
  std::vector<Rule> rules;

  void Mine(const SequenceDatabase& db,
            const ConsequentMinerOptions& consequent_options,
            const CountingBackend* backend, const CancelToken* cancel,
            SequentialWorkspace* ws) {
    // Per-premise granularity: a fired token skips the whole job.
    if (cancel != nullptr && cancel->ShouldStopExact()) return;
    const uint64_t total_points = points.TotalPoints();
    const uint64_t s_support = points.SupportingSequences();
    PatternSet consequents =
        MineConsequents(db, points, consequent_options, ws);
    rules.reserve(consequents.size());
    for (const MinedPattern& post : consequents.items()) {
      Rule rule;
      rule.premise = premise;
      rule.consequent = post.pattern;
      rule.s_support = s_support;
      rule.premise_points = total_points;
      rule.satisfied_points = post.support;
      rule.i_support = backend != nullptr
                           ? CountOccurrences(*backend, rule.Concatenation())
                           : CountOccurrences(rule.Concatenation(), db);
      rules.push_back(std::move(rule));
    }
  }
};

}  // namespace

RuleSet MineRecurrentRules(const SequenceDatabase& db,
                           const RuleMinerOptions& options,
                           RuleMinerStats* stats, ThreadPool* pool,
                           const CountingBackend* backend) {
  RuleMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = RuleMinerStats{};

  PremiseMinerOptions premise_options;
  premise_options.min_s_support = options.min_s_support;
  premise_options.max_length = options.max_premise_length;
  premise_options.maximality_pruning = options.non_redundant;

  ConsequentMinerOptions consequent_options;
  consequent_options.min_confidence = options.min_confidence;
  consequent_options.max_length = options.max_consequent_length;
  consequent_options.closed_pruning = options.non_redundant;

  const size_t num_threads = ThreadPool::ResolveThreads(options.num_threads);
  RuleSet candidates;
  if (num_threads > 1 && options.max_rules == 0) {
    // Steps 1-2 stay sequential (the premise scan's maximality pruning is
    // interactive); the per-premise Steps 3-4 — the dominant cost — fan
    // out across the pool and merge in premise order. Each worker claims
    // premises off a shared cursor and keeps one warm consequent
    // workspace for all of them.
    std::vector<std::unique_ptr<PremiseJob>> jobs;
    ScanPremises(
        db, premise_options,
        [&](const Pattern& premise, const TemporalPointSet& points) {
          if (options.cancel != nullptr && options.cancel->ShouldStop()) {
            stats->stopped = options.cancel->stop_code();
            return false;
          }
          ++stats->premises_enumerated;
          if (points.TotalPoints() == 0) return true;
          jobs.push_back(std::make_unique<PremiseJob>(
              PremiseJob{premise, points, {}}));
          return true;
        },
        nullptr, backend);
    std::atomic<size_t> next_job{0};
    stats->error = ThreadPool::ParallelForShared(
        pool, num_threads, std::min(num_threads, jobs.size()), [&](size_t) {
          SequentialWorkspace ws;
          for (size_t i = next_job++; i < jobs.size(); i = next_job++) {
            jobs[i]->Mine(db, consequent_options, backend, options.cancel,
                          &ws);
          }
        });
    if (options.cancel != nullptr && options.cancel->fired()) {
      stats->stopped = options.cancel->stop_code();
    }
    for (auto& job : jobs) {
      for (Rule& rule : job->rules) {
        candidates.Add(std::move(rule));
        ++stats->candidate_rules;
      }
    }
  } else {
    // Step 1: enumerate premises; Step 2: their temporal points arrive
    // with each premise. Consequent mining runs inside the premise scan's
    // sink, so it keeps a workspace of its own, warm across premises.
    SequentialWorkspace consequent_ws;
    ScanPremises(
        db, premise_options,
        [&](const Pattern& premise, const TemporalPointSet& points) {
          if (stats->truncated) return false;
          if (options.cancel != nullptr &&
              options.cancel->ShouldStopExact()) {
            stats->stopped = options.cancel->stop_code();
            return false;
          }
          ++stats->premises_enumerated;
          const uint64_t total_points = points.TotalPoints();
          const uint64_t s_support = points.SupportingSequences();
          if (total_points == 0) return true;

          // Step 3: consequents above the confidence-derived threshold.
          // The i-support scan (the expensive part of Step 4's input) is
          // computed per rule so max_rules truncation stops it early.
          PatternSet consequents =
              MineConsequents(db, points, consequent_options, &consequent_ws);
          for (const MinedPattern& post : consequents.items()) {
            Rule rule;
            rule.premise = premise;
            rule.consequent = post.pattern;
            rule.s_support = s_support;
            rule.premise_points = total_points;
            rule.satisfied_points = post.support;
            rule.i_support =
                backend != nullptr
                    ? CountOccurrences(*backend, rule.Concatenation())
                    : CountOccurrences(rule.Concatenation(), db);
            candidates.Add(std::move(rule));
            ++stats->candidate_rules;
            if (options.max_rules != 0 &&
                stats->candidate_rules >= options.max_rules) {
              stats->truncated = true;
              return false;
            }
          }
          return !stats->truncated;
        },
        nullptr, backend);
  }

  // Step 4: instance-support filter.
  RuleSet filtered;
  for (const Rule& r : candidates.rules()) {
    if (r.i_support >= options.min_i_support) filtered.Add(r);
  }

  // Step 5: final redundancy sweep (NR only).
  RuleSet out = options.non_redundant
                    ? RemoveRedundantRules(filtered, options.redundancy)
                    : std::move(filtered);
  stats->rules_emitted = out.size();
  return out;
}

}  // namespace specmine
