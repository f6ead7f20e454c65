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
// Mining reuses the forward machinery through sequence reversal: post
// embeds into the strict prefix before j iff reverse(post) embeds into
// the suffix of the reversed sequence starting right after the mirrored
// point. Consequents are therefore mined with the standard confidence-
// thresholded sequential miner over the reversed database and un-reversed
// on output.

#ifndef SPECMINE_RULEMINE_BACKWARD_RULES_H_
#define SPECMINE_RULEMINE_BACKWARD_RULES_H_

#include "src/rulemine/rule_miner.h"

namespace specmine {

/// \brief Mines backward recurrent rules from \p db per \p options
/// (the options' premise/consequent roles read as pre / past-post).
/// Returned Rule objects carry `premise` = pre and `consequent` = post
/// with the backward statistics above. options.cancel is polled once per
/// premise, as in MineRecurrentRules.
RuleSet MineBackwardRules(const SequenceDatabase& db,
                          const RuleMinerOptions& options,
                          RuleMinerStats* stats = nullptr);

/// \brief The LTL-with-past rendering "G(pre -> P(post))" used by reports;
/// there is no past operator in the checkable fragment, so this is a
/// display form only.
std::string BackwardRuleToString(const Rule& rule,
                                 const EventDictionary& dict);

}  // namespace specmine

#endif  // SPECMINE_RULEMINE_BACKWARD_RULES_H_
