#include "src/engine/json_results.h"

namespace specmine {

namespace {

void WritePatternEvents(JsonWriter& writer, const Pattern& pattern,
                        const EventDictionary& dict) {
  writer.BeginArray();
  for (EventId ev : pattern) writer.String(dict.NameOrPlaceholder(ev));
  writer.EndArray();
}

}  // namespace

void WriteRunReport(JsonWriter& writer, const RunReport& report) {
  writer.BeginObject();
  writer.Field("task", report.task);
  writer.Field("backend", report.backend);
  writer.Field("nodes_visited", static_cast<uint64_t>(report.nodes_visited));
  writer.Field("patterns_emitted",
               static_cast<uint64_t>(report.patterns_emitted));
  writer.Field("rules_emitted", static_cast<uint64_t>(report.rules_emitted));
  writer.Field("premises_enumerated",
               static_cast<uint64_t>(report.premises_enumerated));
  writer.Field("candidate_rules",
               static_cast<uint64_t>(report.candidate_rules));
  writer.Field("subtrees_pruned",
               static_cast<uint64_t>(report.subtrees_pruned));
  writer.Field("truncated", report.truncated);
  writer.Field("index_build_seconds", report.index_build_seconds);
  writer.Field("mine_seconds", report.mine_seconds);
  writer.Field("shards_total", static_cast<uint64_t>(report.shards_total));
  writer.Field("shards_quarantined",
               static_cast<uint64_t>(report.shards_quarantined));
  writer.Key("shard_errors").BeginArray();
  for (const std::string& error : report.shard_errors) writer.String(error);
  writer.EndArray();
  writer.Field("shard_local_patterns",
               static_cast<uint64_t>(report.shard_local_patterns));
  writer.Field("shard_candidates",
               static_cast<uint64_t>(report.shard_candidates));
  writer.Field("shard_bound_skips",
               static_cast<uint64_t>(report.shard_bound_skips));
  writer.Field("shard_recounts", static_cast<uint64_t>(report.shard_recounts));
  writer.Field("shards_scanned", static_cast<uint64_t>(report.shards_scanned));
  writer.Field("shards_cached", static_cast<uint64_t>(report.shards_cached));
  writer.Key("shard_phase1_nodes").BeginArray();
  for (size_t nodes : report.shard_phase1_nodes) {
    writer.UInt(static_cast<uint64_t>(nodes));
  }
  writer.EndArray();
  writer.EndObject();
}

std::string PatternsResultToJson(const RunReport& report,
                                 const PatternSet& patterns,
                                 const EventDictionary& dict) {
  std::string out;
  JsonWriter writer(&out);
  writer.BeginObject();
  writer.Key("report");
  WriteRunReport(writer, report);
  writer.Key("patterns").BeginArray();
  for (const MinedPattern& item : patterns.items()) {
    writer.BeginObject();
    writer.Key("events");
    WritePatternEvents(writer, item.pattern, dict);
    writer.Field("support", item.support);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  writer.Finish();
  return out;
}

std::string RulesResultToJson(const RunReport& report, const RuleSet& rules,
                              const EventDictionary& dict) {
  std::string out;
  JsonWriter writer(&out);
  writer.BeginObject();
  writer.Key("report");
  WriteRunReport(writer, report);
  writer.Key("rules").BeginArray();
  for (const Rule& rule : rules.rules()) {
    writer.BeginObject();
    writer.Key("premise");
    WritePatternEvents(writer, rule.premise, dict);
    writer.Key("consequent");
    WritePatternEvents(writer, rule.consequent, dict);
    writer.Field("s_support", rule.s_support);
    writer.Field("i_support", rule.i_support);
    writer.Field("premise_points", rule.premise_points);
    writer.Field("satisfied_points", rule.satisfied_points);
    writer.Field("confidence", rule.confidence());
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  writer.Finish();
  return out;
}

std::string TwoEventResultToJson(const RunReport& report,
                                 const std::vector<TwoEventRule>& pairs,
                                 const EventDictionary& dict) {
  std::string out;
  JsonWriter writer(&out);
  writer.BeginObject();
  writer.Key("report");
  WriteRunReport(writer, report);
  writer.Key("pairs").BeginArray();
  for (const TwoEventRule& pair : pairs) {
    writer.BeginObject();
    writer.Field("cause", dict.NameOrPlaceholder(pair.cause));
    writer.Field("effect", dict.NameOrPlaceholder(pair.effect));
    writer.Field("template", PairTemplateName(pair.strongest));
    writer.Field("relevant_traces", pair.relevant_traces);
    writer.Field("satisfying_traces", pair.satisfying_traces);
    writer.Field("satisfaction", pair.satisfaction());
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  writer.Finish();
  return out;
}

}  // namespace specmine
