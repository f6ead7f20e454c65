// The one JSON rendering of a mining result, shared verbatim by the two
// surfaces that emit it: the specmined HTTP success envelope and the CLI
// --json flag. Because both call these functions, the surfaces cannot
// drift — the server end-to-end test diffs them byte for byte (modulo the
// timing fields, which legitimately differ run to run).
//
// Document shapes (pretty-printed, two-space indent, one field per line —
// see src/support/json_writer.h for the formatting contract):
//
//   patterns:  { "report": {...}, "patterns": [ {"events": [names...],
//                "support": N}, ... ] }
//   rules:     { "report": {...}, "rules": [ {"premise": [...],
//                "consequent": [...], "s_support": N, "i_support": N,
//                "premise_points": N, "satisfied_points": N,
//                "confidence": F}, ... ] }
//   pairs:     { "report": {...}, "pairs": [ {"cause": name,
//                "effect": name, "template": name, "relevant_traces": N,
//                "satisfying_traces": N, "satisfaction": F}, ... ] }
//
// The report object carries every RunReport counter and timing, the
// phase-1 provenance of sharded runs (shards_scanned, shards_cached,
// shard_phase1_nodes) included; its *_seconds members are the only fields
// whose bytes vary across equal runs.

#ifndef SPECMINE_ENGINE_JSON_RESULTS_H_
#define SPECMINE_ENGINE_JSON_RESULTS_H_

#include <string>
#include <vector>

#include "src/engine/run_report.h"
#include "src/patterns/pattern_set.h"
#include "src/rulemine/rule.h"
#include "src/support/json_writer.h"
#include "src/trace/event_dictionary.h"
#include "src/twoevent/perracotta.h"

namespace specmine {

/// \brief Writes the RunReport object (all counters and timings) as the
/// value at the writer's current position.
void WriteRunReport(JsonWriter& writer, const RunReport& report);

/// \brief The complete patterns-result document, trailing newline
/// included. \p patterns is rendered in its current order (callers sort
/// first; both surfaces use PatternSet::SortBySupport).
std::string PatternsResultToJson(const RunReport& report,
                                 const PatternSet& patterns,
                                 const EventDictionary& dict);

/// \brief The complete rules-result document (forward or backward rules —
/// report.task tells them apart).
std::string RulesResultToJson(const RunReport& report, const RuleSet& rules,
                              const EventDictionary& dict);

/// \brief The complete two-event (Perracotta) result document.
std::string TwoEventResultToJson(const RunReport& report,
                                 const std::vector<TwoEventRule>& pairs,
                                 const EventDictionary& dict);

}  // namespace specmine

#endif  // SPECMINE_ENGINE_JSON_RESULTS_H_
