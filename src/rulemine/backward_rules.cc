#include "src/rulemine/backward_rules.h"

#include <iterator>

namespace specmine {

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

std::string BackwardRuleToString(const Rule& rule,
                                 const EventDictionary& dict) {
  return rule.premise.ToString(dict) + " -> previously " +
         rule.consequent.ToString(dict) +
         "  (s-sup=" + std::to_string(rule.s_support) +
         ", i-sup=" + std::to_string(rule.i_support) + ", conf=" +
         std::to_string(rule.confidence()).substr(0, 5) + ")";
}

}  // namespace specmine
