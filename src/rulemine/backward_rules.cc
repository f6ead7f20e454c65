#include "src/rulemine/backward_rules.h"

#include <algorithm>

#include "src/rulemine/consequent_miner.h"
#include "src/rulemine/premise_miner.h"
#include "src/seqmine/occurrence_engine.h"
#include "src/seqmine/prefixspan.h"
#include "src/support/cancel.h"

namespace specmine {

namespace {

// The database with every sequence reversed; event ids are shared with the
// original (the dictionary is re-interned in identical order).
SequenceDatabase ReverseDatabase(const SequenceDatabase& db) {
  SequenceDatabaseBuilder rev;
  rev.Reserve(db.size(), db.TotalEvents());
  for (size_t i = 0; i < db.dictionary().size(); ++i) {
    rev.mutable_dictionary()->Intern(
        db.dictionary().Name(static_cast<EventId>(i)));
  }
  std::vector<EventId> events;
  for (EventSpan seq : db) {
    events.assign(std::make_reverse_iterator(seq.end()),
                  std::make_reverse_iterator(seq.begin()));
    rev.AddSequence(EventSpan(events));
  }
  return rev.Build();
}

Pattern ReversePattern(const Pattern& p) {
  std::vector<EventId> events(p.events().rbegin(), p.events().rend());
  return Pattern(std::move(events));
}

}  // namespace

RuleSet MineBackwardRules(const SequenceDatabase& db,
                          const RuleMinerOptions& options,
                          RuleMinerStats* stats) {
  RuleMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = RuleMinerStats{};

  SequenceDatabase rev = ReverseDatabase(db);

  PremiseMinerOptions premise_options;
  premise_options.min_s_support = options.min_s_support;
  premise_options.max_length = options.max_premise_length;
  // Premise maximality pruning is a *forward*-concatenation argument: for
  // backward rules it would fold the past context into the premise, making
  // the post++pre concatenation (the rule's i-support witness) typically
  // unsatisfiable. Backward premises are enumerated in full and redundancy
  // is left to the final sweep.
  premise_options.maximality_pruning = false;

  ConsequentMinerOptions consequent_options;
  consequent_options.min_confidence = options.min_confidence;
  consequent_options.max_length = options.max_consequent_length;
  consequent_options.closed_pruning = options.non_redundant;

  RuleSet candidates;
  // Consequent mining runs inside the premise scan's sink, so it keeps a
  // workspace of its own, warm across premises.
  SequentialWorkspace consequent_ws;
  ScanPremises(
      db, premise_options,
      [&](const Pattern& premise, const TemporalPointSet& points) {
        if (stats->truncated) return false;
        if (options.cancel != nullptr && options.cancel->ShouldStopExact()) {
          stats->stopped = options.cancel->stop_code();
          return false;
        }
        ++stats->premises_enumerated;
        const uint64_t total_points = points.TotalPoints();
        if (total_points == 0) return true;

        // One unit per temporal point, into the reversed sequence: the
        // strict prefix before point j of a length-L sequence is the
        // suffix of the reversal starting at L - j.
        std::vector<Unit> units;
        units.reserve(total_points);
        for (size_t i = 0; i < points.SupportingSequences(); ++i) {
          const SeqId s = points.seq(i);
          const Pos len = static_cast<Pos>(db[s].size());
          for (Pos j : points.points(i)) {
            units.push_back(Unit{s, static_cast<Pos>(len - j)});
          }
        }
        const PatternSet posts = MineConsequents(
            UnitDatabase(rev, std::move(units)), consequent_options,
            &consequent_ws);

        for (const MinedPattern& post : posts.items()) {
          Rule rule;
          rule.premise = premise;
          rule.consequent = ReversePattern(post.pattern);
          rule.s_support = points.SupportingSequences();
          rule.premise_points = total_points;
          rule.satisfied_points = post.support;
          // i-support of a backward rule: occurrences of post ++ pre.
          rule.i_support =
              CountOccurrences(rule.consequent.Concat(rule.premise), db);
          candidates.Add(std::move(rule));
          ++stats->candidate_rules;
          if (options.max_rules != 0 &&
              stats->candidate_rules >= options.max_rules) {
            stats->truncated = true;
            return false;
          }
        }
        return true;
      });

  RuleSet filtered;
  for (const Rule& r : candidates.rules()) {
    if (r.i_support >= options.min_i_support) filtered.Add(r);
  }
  RuleSet out = options.non_redundant
                    ? RemoveRedundantRules(filtered, options.redundancy)
                    : std::move(filtered);
  stats->rules_emitted = out.size();
  return out;
}

std::string BackwardRuleToString(const Rule& rule,
                                 const EventDictionary& dict) {
  return rule.premise.ToString(dict) + " -> previously " +
         rule.consequent.ToString(dict) +
         "  (s-sup=" + std::to_string(rule.s_support) +
         ", i-sup=" + std::to_string(rule.i_support) + ", conf=" +
         std::to_string(rule.confidence()).substr(0, 5) + ")";
}

}  // namespace specmine
