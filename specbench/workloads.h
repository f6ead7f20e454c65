// The three benchmark workloads, their seeded corpora and their fixed
// mining parameters. See README.md in this directory for why each
// workload exists and which layer metrics should move which end-to-end
// metrics.

#ifndef SPECBENCH_WORKLOADS_H_
#define SPECBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "specbench/bench_common.h"
#include "src/support/status.h"
#include "src/trace/sequence_database.h"

namespace specbench {

/// What one run is asked to do.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase. A phase also runs until it has
  /// kMinOperations samples, so the p99 has ten samples beyond it.
  double seconds = 10.0;
  /// Hard cap on the timed phase, which wins over kMinOperations so a run
  /// on a slow machine still ends in bounded time.
  double max_seconds = 20.0;
  /// Directory holding the generated inputs; scratch files go there too.
  std::string work_dir;
  /// The specmined binary (server-sparse only).
  std::string server_binary;
  /// Client connections on server-sparse: min(nproc, 4).
  size_t load_threads = 1;
};

/// The shape of a generated corpus, as the program sees it.
struct CorpusShape {
  std::string generator;  // QuestParams label(s).
  size_t sequences = 0;
  size_t events = 0;
  size_t distinct_events = 0;
  double mean_occurrences = 0.0;  // events / distinct_events.
  std::string auto_backend;       // ChooseBackendKind verdict.
};

CorpusShape ShapeOf(const specmine::SequenceDatabase& db,
                    std::string generator);

/// An input property a workload depends on, checked on every run.
struct Assertion {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything one timed phase measured.
struct PhaseResult {
  CorpusShape shape;
  std::vector<Assertion> assertions;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latencies_s;  // One per completed operation.
  // Length of the timed phase: the sum of operation latencies on
  // batch-dense and append-remine, whose set-up and output checks sit in
  // between operations; the wall clock of the concurrent clients on
  // server-sparse.
  double timed_seconds = 0.0;
  std::vector<double> setup_s;      // One per set-up repetition.
  double peak_rss_mb = 0.0;
  double write_bytes_per_event = 0.0;
  size_t load_threads = 1;  // Threads or connections issuing operations.
  /// Per-layer metrics (filled on traced phases).
  std::map<std::string, double> layers;
};

inline constexpr size_t kMinOperations = 1000;

/// Writes the seeded inputs of \p workload into \p dir: the traces the
/// program will see, plus (batch-dense) the csr reference digests.
specmine::Status Generate(const std::string& workload, uint64_t seed,
                          const std::string& dir);

/// Runs one phase (set-up plus timed operations) of \p config's workload.
specmine::Status RunBatchDense(const RunConfig& config, Tracer& tracer,
                               PhaseResult* result);
specmine::Status RunAppendRemine(const RunConfig& config, Tracer& tracer,
                                 PhaseResult* result);
specmine::Status RunServerSparse(const RunConfig& config, Tracer& tracer,
                                 PhaseResult* result);

/// Reads a text trace file and writes it as a .smdb (the "pack" step).
specmine::Status PackSmdb(const std::string& traces,
                          const std::string& smdb_path);

}  // namespace specbench

#endif  // SPECBENCH_WORKLOADS_H_
