// Shared helpers for the figure-regeneration benchmarks.
//
// Every bench binary prints a self-contained table to stdout and exits 0.
// The dataset scale is selected with the SPECMINE_BENCH_SCALE environment
// variable:
//   (unset) / "ci"  — a scaled-down QUEST dataset so the whole suite runs
//                     in seconds (the default used by test_output /
//                     bench_output capture);
//   "paper"         — the paper's D5C20N10S20 dataset (Section 6); the
//                     full-set miners then take minutes at the lowest
//                     thresholds, as in the original study.

#ifndef SPECMINE_BENCH_BENCH_UTIL_H_
#define SPECMINE_BENCH_BENCH_UTIL_H_

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "src/support/stopwatch.h"
#include "src/synth/quest_generator.h"
#include "src/trace/binary_format.h"
#include "src/trace/database_stats.h"
#include "src/trace/shard_set.h"
#include "src/trace/trace_io.h"

namespace specmine {
namespace bench {

/// \brief True iff SPECMINE_BENCH_SCALE=paper.
inline bool PaperScale() {
  const char* env = std::getenv("SPECMINE_BENCH_SCALE");
  return env != nullptr && std::string(env) == "paper";
}

/// \brief The QUEST dataset used by the synthetic benchmarks: the paper's
/// D5C20N10S20 at paper scale, a proportionally shaped smaller instance
/// otherwise.
inline QuestParams BenchQuestParams() {
  if (PaperScale()) {
    QuestParams p = QuestParams::D5C20N10S20();
    // Near-verbatim planted patterns: the redundancy regime of the paper's
    // experiments (a planted pattern's subsequences all share its support
    // and are absorbed by the closed/NR representation).
    p.corruption_probability = 0.03;
    p.interleave_probability = 0.15;
    p.zipf_exponent = 0.5;
    return p;
  }
  QuestParams p;
  p.d_sequences_thousands = 0.5;   // 500 sequences.
  p.c_avg_sequence_length = 25.0;
  p.n_events_thousands = 1.0;      // 1000 distinct events.
  p.s_avg_pattern_length = 10.0;
  p.num_seed_patterns = 150;
  p.corruption_probability = 0.03;
  p.interleave_probability = 0.15;
  p.zipf_exponent = 0.5;
  return p;
}

/// \brief Generates the benchmark dataset, printing its shape.
inline SequenceDatabase MakeBenchDatabase() {
  QuestParams params = BenchQuestParams();
  Result<SequenceDatabase> db = GenerateQuest(params);
  if (!db.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("dataset %s: %s\n", params.Label().c_str(),
              ComputeStats(*db).ToString().c_str());
  return db.TakeValueOrDie();
}

/// \brief The on-disk twins of \p db for the load benchmarks: the same
/// corpus as plain text and as a packed .smdb file.
struct LoadBenchFiles {
  std::string text_path;
  std::string smdb_path;
};

/// \brief Writes \p db as <stem>.txt and <stem>.smdb in the working
/// directory (exits on IO failure — benches have no error channel).
inline LoadBenchFiles WriteLoadBenchFiles(const SequenceDatabase& db,
                                          const std::string& stem) {
  LoadBenchFiles files{stem + ".txt", stem + kSmdbExtension};
  Status text = WriteTextTraceFile(db, files.text_path);
  Status smdb = WriteBinaryDatabaseFile(db, files.smdb_path);
  if (!text.ok() || !smdb.ok()) {
    std::fprintf(stderr, "cannot write load-bench files: %s / %s\n",
                 text.ToString().c_str(), smdb.ToString().c_str());
    std::exit(1);
  }
  return files;
}

/// \brief The scaled fig1 corpus, replicated per module with
/// module-prefixed event names ("m3.ev17") — the modular multi-component
/// corpus shape sharding serves (each module = one component's traces,
/// disjoint alphabets). Module m uses the bench QUEST parameters with
/// seed + m, so modules differ but the whole corpus is reproducible.
/// \p module_starts, when non-null, receives the trace index at which
/// each module begins — the shard cut points WriteShardBenchFiles uses.
inline SequenceDatabase MakeModularBenchDatabase(
    size_t modules, std::vector<size_t>* module_starts = nullptr) {
  SequenceDatabaseBuilder builder;
  for (size_t m = 0; m < modules; ++m) {
    if (module_starts != nullptr) module_starts->push_back(builder.size());
    QuestParams params = BenchQuestParams();
    params.seed += m;
    Result<SequenceDatabase> module_db = GenerateQuest(params);
    if (!module_db.ok()) {
      std::fprintf(stderr, "dataset generation failed: %s\n",
                   module_db.status().ToString().c_str());
      std::exit(1);
    }
    const std::string prefix = "m" + std::to_string(m) + ".";
    std::vector<std::string> names;
    for (EventSpan seq : *module_db) {
      names.clear();
      names.reserve(seq.size());
      for (EventId ev : seq) {
        names.push_back(prefix + module_db->dictionary().Name(ev));
      }
      builder.AddTrace(names);
    }
  }
  SequenceDatabase db = builder.Build();
  std::printf("modular corpus (%zu modules): %s\n", modules,
              ComputeStats(db).ToString().c_str());
  return db;
}

/// \brief The on-disk twins for the db_shard benchmarks: the modular
/// corpus as one .smdb and as a .smdbset with one shard per module (the
/// writer cuts at the \p module_starts boundaries, as per-component
/// packing runs would).
struct ShardBenchFiles {
  std::string smdb_path;
  std::string smdbset_path;
};

inline ShardBenchFiles WriteShardBenchFiles(
    const SequenceDatabase& db, const std::vector<size_t>& module_starts,
    const std::string& stem) {
  ShardBenchFiles files{stem + kSmdbExtension, stem + kSmdbSetExtension};
  Status smdb = WriteBinaryDatabaseFile(db, files.smdb_path);
  ShardWriter writer(files.smdbset_path);
  writer.AdoptDictionary(db.dictionary());
  Status set = Status::OK();
  size_t next_cut = 0;
  for (size_t s = 0; s < db.size() && set.ok(); ++s) {
    if (next_cut < module_starts.size() && s == module_starts[next_cut]) {
      set = writer.CutShard();
      ++next_cut;
    }
    if (set.ok()) {
      set = writer.AddSequence(db[static_cast<SeqId>(s)], db.dictionary());
    }
  }
  if (set.ok()) set = writer.Finish();
  if (!smdb.ok() || !set.ok()) {
    std::fprintf(stderr, "cannot write shard-bench files: %s / %s\n",
                 smdb.ToString().c_str(), set.ToString().c_str());
    std::exit(1);
  }
  return files;
}

/// \brief Runs \p task on \p engine and returns the mined patterns; exits
/// with the Status on failure (bench inputs are generated, so a failure is
/// a bug). A fresh session's first call also builds its index, which is
/// what the figure benches time alongside the mining.
template <typename Task>
PatternSet CollectOrDie(const Engine& engine, const Task& task,
                        RunReport* report = nullptr) {
  Result<PatternSet> mined = engine.CollectPatterns(task, report);
  if (!mined.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 mined.status().ToString().c_str());
    std::exit(1);
  }
  return mined.TakeValueOrDie();
}

/// \brief Times a callable returning a size (pattern/rule count).
template <typename Fn>
inline std::pair<double, size_t> TimedCount(Fn&& fn) {
  Stopwatch sw;
  size_t count = fn();
  return {sw.ElapsedSeconds(), count};
}

/// \brief Prints a horizontal separator sized for the figure tables.
inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// \brief Compiler barrier so timed expressions are not optimized away.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// \brief Machine-readable per-benchmark results, written as a JSON file so
/// successive PRs have a perf trajectory to compare against
/// (BENCH_core.json for the micro benchmarks).
class JsonReport {
 public:
  explicit JsonReport(std::string path) : path_(std::move(path)) {}

  /// \brief Records one benchmark result in nanoseconds per operation.
  void Record(const std::string& name, double ns_per_op) {
    entries_.emplace_back(name, ns_per_op);
  }

  /// \brief Writes {"benchmarks": [{"name": ..., "ns_per_op": ...}, ...]}.
  /// Returns false (with a message on stderr) on IO failure.
  bool Write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.1f}%s\n",
                   entries_[i].first.c_str(), entries_[i].second,
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu benchmarks)\n", path_.c_str(),
                entries_.size());
    return true;
  }

 private:
  std::string path_;
  std::vector<std::pair<std::string, double>> entries_;
};

/// \brief Times \p fn (ns per call), auto-calibrating the iteration count
/// to fill ~\p budget_seconds of wall clock. Prints a table row and records
/// the result in \p report when non-null.
template <typename Fn>
inline double RunMicroBenchmark(const std::string& name, Fn&& fn,
                                JsonReport* report,
                                double budget_seconds = 0.25) {
  // Warm up and estimate the per-call cost.
  Stopwatch sw;
  int64_t calls = 0;
  do {
    fn();
    ++calls;
  } while (sw.ElapsedSeconds() < 0.01);
  double estimate = sw.ElapsedSeconds() / static_cast<double>(calls);
  int64_t iters = static_cast<int64_t>(budget_seconds / estimate);
  if (iters < 1) iters = 1;

  sw.Restart();
  for (int64_t i = 0; i < iters; ++i) fn();
  double ns = sw.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
  std::printf("%-28s %14.1f ns/op %12" PRId64 " iters\n", name.c_str(), ns,
              iters);
  if (report != nullptr) report->Record(name, ns);
  return ns;
}

}  // namespace bench
}  // namespace specmine

#endif  // SPECMINE_BENCH_BENCH_UTIL_H_
