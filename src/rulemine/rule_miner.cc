#include "src/rulemine/rule_miner.h"

#include <utility>

#include "src/rulemine/backward_rules.h"
#include "src/rulemine/consequent_miner.h"
#include "src/rulemine/premise_miner.h"
#include "src/seqmine/occurrence_engine.h"
#include "src/support/cancel.h"
#include "src/support/thread_pool.h"

namespace specmine {

namespace {

// What Steps 3-4 read for every premise of one run.
struct RunContext {
  const HybridIndex& index;
  bool backward;
  // Where consequents are mined: index.db() forward, its reversal backward.
  const SequenceDatabase& consequent_db;
  ConsequentMinerOptions consequent_options;
  size_t max_rules;
};

// Steps 3-4 for one premise: its consequents above the confidence-derived
// threshold, then one candidate rule per consequent. The i-support scan
// (the expensive part of Step 4's input) runs per rule, so max_rules
// truncation stops it early. Appends to *rules; returns false once that
// holds max_rules rules.
bool MinePremise(const RunContext& run, SequentialWorkspace* ws,
                 const Pattern& premise, const TemporalPointSet& points,
                 RuleSet* rules) {
  const PatternSet consequents = MineConsequents(
      UnitDatabase(run.consequent_db,
                   ConsequentUnits(run.index.db(), points, run.backward)),
      run.consequent_options, ws);
  for (const MinedPattern& post : consequents.items()) {
    Rule rule;
    rule.premise = premise;
    rule.consequent =
        run.backward ? ReversePattern(post.pattern) : post.pattern;
    rule.s_support = points.SupportingSequences();
    rule.premise_points = points.TotalPoints();
    rule.satisfied_points = post.support;
    // i-support: occurrences of pre ++ post, or post ++ pre backward.
    rule.i_support = CountOccurrences(
        run.index, run.backward ? rule.consequent.Concat(rule.premise)
                                : rule.Concatenation());
    rules->Add(std::move(rule));
    if (run.max_rules != 0 && rules->size() >= run.max_rules) return false;
  }
  return true;
}

// Steps 1-5 in either direction. The directions differ only in where a
// consequent may occur: after a temporal point, or strictly before it,
// mined as a suffix of the reversed sequence.
RuleSet MineRules(const HybridIndex& index, bool backward,
                  const RuleMinerOptions& options, RuleMinerStats* stats,
                  ThreadPool* pool) {
  RuleMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = RuleMinerStats{};

  PremiseMinerOptions premise_options;
  premise_options.min_s_support = options.min_s_support;
  premise_options.max_length = options.max_premise_length;
  // Premise maximality pruning is a *forward*-concatenation argument: for
  // backward rules it would fold the past context into the premise, making
  // the post ++ pre concatenation (the rule's i-support witness) typically
  // unsatisfiable. Backward premises are enumerated in full and redundancy
  // is left to the final sweep.
  premise_options.maximality_pruning = options.non_redundant && !backward;

  const SequenceDatabase reversed =
      backward ? ReverseDatabase(index.db()) : SequenceDatabase();
  RunContext run{index, backward, backward ? reversed : index.db(), {},
                 options.max_rules};
  run.consequent_options.min_confidence = options.min_confidence;
  run.consequent_options.max_length = options.max_consequent_length;
  run.consequent_options.closed_pruning = options.non_redundant;

  // One job per premise, each mined with its worker's warm consequent
  // workspace; replaying the jobs in premise order reproduces the
  // one-thread candidate order. max_rules must stop at the same rule as
  // one thread does, so a capped run uses one worker.
  const size_t num_threads =
      options.max_rules == 0 ? ThreadPool::ResolveThreads(options.num_threads)
                             : 1;
  RuleSet candidates;
  OrderedFanOut<SequentialWorkspace, RuleSet, Pattern, TemporalPointSet> fan(
      pool, num_threads,
      [&](SequentialWorkspace& ws, RuleSet* rules, const Pattern& premise,
          const TemporalPointSet& points) {
        return MinePremise(run, &ws, premise, points,
                           rules == nullptr ? &candidates : rules);
      },
      [&](RuleSet& rules) {
        for (Rule& rule : *rules.mutable_rules()) {
          candidates.Add(std::move(rule));
        }
        return true;
      });
  // Step 1: enumerate premises; Step 2: their temporal points arrive with
  // each premise, which feeds the fan-out while the scan goes on.
  bool stopped = false;
  ScanPremises(
      index, premise_options,
      [&](const Pattern& premise, const TemporalPointSet& points) {
        if (stopped) return false;
        if (options.cancel != nullptr && options.cancel->ShouldStopExact()) {
          stats->stopped = options.cancel->stop_code();
          return false;
        }
        ++stats->premises_enumerated;
        if (points.TotalPoints() == 0) return true;
        stopped = !fan.Push(premise, points);
        return !stopped;
      });
  stats->error = fan.Finish();
  stats->candidate_rules = candidates.size();
  stats->truncated =
      options.max_rules != 0 && candidates.size() >= options.max_rules;

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

}  // namespace

RuleSet MineRecurrentRules(const HybridIndex& index,
                           const RuleMinerOptions& options,
                           RuleMinerStats* stats, ThreadPool* pool) {
  return MineRules(index, /*backward=*/false, options, stats, pool);
}

RuleSet MineBackwardRules(const HybridIndex& index,
                          const RuleMinerOptions& options,
                          RuleMinerStats* stats, ThreadPool* pool) {
  return MineRules(index, /*backward=*/true, options, stats, pool);
}

}  // namespace specmine
