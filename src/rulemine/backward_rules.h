// Backward recurrent rules — the second future-work extension (Section 8):
// "rules that express backward ... temporal constraints, e.g., whenever a
// series of events occurs, another series of events must have happened
// before".
//
// A backward rule `pre -> past(post)` states: whenever the series `pre`
// has just occurred at temporal point j, the series `post` occurred
// somewhere strictly before the point (post embeds into S[0..j-1] with
// room for all its events before S[j]).
//
// Statistics mirror the forward case:
//   s-support  — sequences containing pre;
//   confidence — fraction of temporal points of pre whose strict prefix
//                contains post;
//   i-support  — occurrences (Definition 5.1) of post ++ pre.
//
// Mining runs the forward pipeline (rule_miner.h) with one change, through
// sequence reversal: post embeds into the strict prefix before j iff
// reverse(post) embeds into the suffix of the reversed sequence starting
// right after the mirrored point. Consequents are therefore mined with the
// standard confidence-thresholded sequential miner over the reversed
// database and un-reversed on output. Premise maximality pruning is off:
// it is a forward-concatenation argument.

#ifndef SPECMINE_RULEMINE_BACKWARD_RULES_H_
#define SPECMINE_RULEMINE_BACKWARD_RULES_H_

#include "src/rulemine/rule_miner.h"

namespace specmine {

/// \brief Mines backward recurrent rules from index.db() per \p options
/// (the options' premise/consequent roles read as pre / past-post), on the
/// same premise scan, ordered fan-out, i-support filter and Step-5 sweep as
/// MineRecurrentRules; \p index and \p pool play the same parts there.
/// Returned Rule objects carry `premise` = pre and `consequent` = post
/// with the backward statistics above.
RuleSet MineBackwardRules(const HybridIndex& index,
                          const RuleMinerOptions& options,
                          RuleMinerStats* stats = nullptr,
                          ThreadPool* pool = nullptr);

/// \brief \p db with every sequence reversed; event ids are shared with the
/// original (the dictionary is re-interned in identical order).
SequenceDatabase ReverseDatabase(const SequenceDatabase& db);

/// \brief \p p with its events in reverse order.
Pattern ReversePattern(const Pattern& p);

/// \brief The report form "pre -> previously post  (s-sup=…, i-sup=…,
/// conf=…)", i.e. the LTL-with-past G(pre -> P(post)); there is no past
/// operator in the checkable fragment, so this is a display form only.
std::string BackwardRuleToString(const Rule& rule,
                                 const EventDictionary& dict);

}  // namespace specmine

#endif  // SPECMINE_RULEMINE_BACKWARD_RULES_H_
