// Figure 4 — case study on the (simulated) JBoss transaction component:
// mine closed iterative patterns from test-suite traces and print the
// longest one, which should be the full connection-setup / tx-setup /
// commit / dispose protocol run of the paper's Figure 4.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/test_suite.h"
#include "src/support/stopwatch.h"

namespace specmine {
namespace {

const char* const kBlockHeaders[] = {
    "Connection Set Up", "Tx Manager Set Up", "Transaction Set Up",
    "Transaction Commit", "Transaction Dispose"};
// First event index of each Figure-4 block (see sim::Figure4Pattern).
const size_t kBlockStarts[] = {0, 4, 8, 17, 27};

int Run() {
  std::printf(
      "=== Figure 4: longest iterative pattern, JBoss transaction "
      "component (simulated) ===\n");
  sim::TestSuiteOptions suite;
  suite.num_traces = bench::PaperScale() ? 500 : 100;
  suite.min_runs_per_trace = 1;
  // Capped at 2 so the longest closed pattern is the single-run protocol
  // of Figure 4 rather than a two-run concatenation (see DESIGN.md).
  suite.max_runs_per_trace = 2;
  suite.transaction.rollback_probability = 0.15;
  suite.transaction.noise_probability = 0.35;
  SequenceDatabase db = sim::GenerateTransactionTraces(suite);
  std::printf("traces: %zu, events: %zu, alphabet: %zu\n", db.size(),
              db.TotalEvents(), db.dictionary().size());

  ClosedTask task;
  // Commit runs are ~85% of transactions; 60% of traces is a safe floor.
  task.options.min_support = static_cast<uint64_t>(0.6 * db.size());
  const Engine engine(std::move(db));
  Stopwatch sw;  // Covers the session's index build and the mining.
  RunReport report;
  PatternSet closed = bench::CollectOrDie(engine, task, &report);
  double elapsed = sw.ElapsedSeconds();

  std::printf("closed patterns: %zu (nodes %zu, %0.3fs)\n", closed.size(),
              report.nodes_visited, elapsed);
  if (closed.empty()) return 1;
  const MinedPattern& longest = closed.Longest();
  std::printf("\nlongest pattern (%zu events, support %llu):\n",
              longest.pattern.size(),
              static_cast<unsigned long long>(longest.support));
  size_t block = 0;
  for (size_t i = 0; i < longest.pattern.size(); ++i) {
    if (block < std::size(kBlockStarts) && i == kBlockStarts[block]) {
      std::printf("  -- %s --\n", kBlockHeaders[block]);
      ++block;
    }
    const std::string name =
        engine.dictionary().NameOrPlaceholder(longest.pattern[i]);
    std::printf("  %s\n", name.c_str());
  }
  std::printf(
      "\npaper reference: the 32-event protocol run of Figure 4 "
      "(connection\nset up -> tx manager set up -> transaction set up -> "
      "commit -> dispose).\n");
  return 0;
}

}  // namespace
}  // namespace specmine

int main() { return specmine::Run(); }
