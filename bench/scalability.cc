// Scalability sweep (paper Section 6's claim: "the algorithms run well
// even on very low support thresholds"): closed-pattern and NR-rule
// mining runtime as the database grows in number of sequences (D) and in
// average sequence length (C).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/rulemine/rule_miner.h"

namespace specmine {
namespace {

SequenceDatabase MakeDataset(double d_thousands, double c_len) {
  QuestParams p = bench::BenchQuestParams();
  p.d_sequences_thousands = d_thousands;
  p.c_avg_sequence_length = c_len;
  Result<SequenceDatabase> db = GenerateQuest(p);
  if (!db.ok()) std::exit(1);
  return db.TakeValueOrDie();
}

void Row(const SequenceDatabase& db, const char* label) {
  ClosedTask pattern_task;
  pattern_task.options.min_support =
      static_cast<uint64_t>(0.03 * db.size()) + 1;
  const Engine engine(db);  // Fresh session: the time includes its index.
  Stopwatch sw1;
  size_t patterns = bench::CollectOrDie(engine, pattern_task).size();
  double t_patterns = sw1.ElapsedSeconds();

  // Rules run on the same session, over the index the patterns built.
  RulesTask rule_task;
  rule_task.options.min_s_support =
      static_cast<uint64_t>(0.07 * db.size()) + 1;
  rule_task.options.min_confidence = 0.7;
  rule_task.options.non_redundant = true;
  Stopwatch sw2;
  size_t rules = engine.CollectRules(rule_task).ValueOrDie().size();
  double t_rules = sw2.ElapsedSeconds();

  std::printf("%-16s %8zu %10zu %12.3f %8zu %12.3f %8zu\n", label, db.size(),
              db.TotalEvents(), t_patterns, patterns, t_rules, rules);
}

int Run() {
  std::printf("=== Scalability: closed patterns & NR rules ===\n");
  std::printf("%-16s %8s %10s %12s %8s %12s %8s\n", "dataset", "seqs",
              "events", "patterns(s)", "|P|", "rules(s)", "|R|");
  bench::PrintRule(80);

  const bool paper = bench::PaperScale();
  // Sweep D (sequence count), C fixed.
  for (double d : paper ? std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}
                        : std::vector<double>{0.1, 0.2, 0.4, 0.8}) {
    SequenceDatabase db = MakeDataset(d, 20.0);
    char label[32];
    std::snprintf(label, sizeof(label), "D=%g C=20", d);
    Row(db, label);
  }
  // Sweep C (sequence length), D fixed.
  for (double c : paper ? std::vector<double>{10, 15, 20, 25, 30}
                        : std::vector<double>{10, 20, 30, 40}) {
    SequenceDatabase db = MakeDataset(paper ? 2.0 : 0.2, c);
    char label[32];
    std::snprintf(label, sizeof(label), "D=%g C=%g", paper ? 2.0 : 0.2, c);
    Row(db, label);
  }
  return 0;
}

}  // namespace
}  // namespace specmine

int main() { return specmine::Run(); }
