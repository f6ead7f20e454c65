// Seeded corpus shapes and the fixed mining parameters of each workload.
// Every input is a function of the run's --seed; the program under test
// only ever sees the trace files written from these generators.

#ifndef SPECBENCH_CORPORA_H_
#define SPECBENCH_CORPORA_H_

#include <cstdint>
#include <iterator>
#include <string>

#include "src/engine/engine.h"
#include "src/synth/quest_generator.h"

namespace specbench {

// ---------------------------------------------------------------------------
// batch-dense: the ROADMAP corpus shape (gen-quest --d 0.5 --c 25 --n 0.3
// --s 6) at half the traces, so one mine costs milliseconds and a run holds
// well over a thousand of them. Dense: mean occurrences per event >= 8, so
// the auto chooser resolves the bitmap backend. A large seed-pattern pool
// and kDenseCorpora independent corpora per run (one session each) keep the
// work per run nearly independent of the seed: one corpus's pattern counts
// vary by ~10% across seeds.

specmine::QuestParams DenseParams(uint64_t seed);
inline constexpr size_t kDenseCorpora = 4;
std::string DenseFile(const std::string& dir, size_t corpus);

/// Fractional thresholds of the mined tasks.
inline constexpr double kDenseFullMinSup = 0.08;
inline constexpr double kDenseClosedMinSup = 0.07;
inline constexpr double kDenseGeneratorsMinSup = 0.1;
inline constexpr double kDenseRulesMinSsup = 0.3;
inline constexpr double kDenseRulesMinConf = 0.5;
inline constexpr double kDenseBackwardMinSsup = 0.3;
inline constexpr double kDenseBackwardMinConf = 0.8;

/// The tasks batch-dense cycles through, in this order, on each corpus.
/// Rules run forward and backward (past-time), so there are five tasks of
/// distinct cost and the median latency falls inside one task's latency
/// cluster rather than on the gap between two clusters.
enum class DenseTask { kFull, kClosed, kGenerators, kRules, kBackwardRules };
inline constexpr DenseTask kDenseCycle[] = {
    DenseTask::kFull, DenseTask::kClosed, DenseTask::kGenerators,
    DenseTask::kRules, DenseTask::kBackwardRules};
const char* DenseTaskName(DenseTask task);  // "full", "closed", ...
inline constexpr size_t kDenseTasks = std::size(kDenseCycle);

/// Runs \p task on \p engine (one thread, \p backend) into a digest sink;
/// returns the emission-order digest and fills *report / *count.
specmine::Result<uint64_t> MineDense(const specmine::Engine& engine,
                                     DenseTask task,
                                     specmine::BackendChoice backend,
                                     specmine::RunReport* report,
                                     size_t* count);

// ---------------------------------------------------------------------------
// append-remine: modules with disjoint alphabets (event names carry an
// "m<k>." prefix), one shard per module. The base holds kBaseModules; each
// round of the timed phase appends the next kAppendModules, one per
// operation.

specmine::QuestParams ModuleParams(uint64_t seed, size_t module);
inline constexpr size_t kBaseModules = 8;
inline constexpr size_t kAppendModules = 24;
/// Absolute: a fractional threshold would rescale with every append and
/// miss the phase-1 cache by design. Low enough that the frozen pigeonhole
/// budget never forces a full rescan within a round (at 20 the second
/// append already rescans every shard, which the workload asserts against).
inline constexpr uint64_t kModularMinSupport = 14;

std::string ModuleFile(const std::string& dir, size_t module);

// ---------------------------------------------------------------------------
// server-sparse: a large alphabet with short traces, mean occurrences per
// event < 8 over an arena >= 4096 events, so auto resolves the hybrid
// backend (an all-bitmap table would hold ~1700 nearly empty rows). The
// server holds kSparseCorpora such corpora and each request names one:
// the cost of one corpus's requests varies by ~20% from seed to seed.

specmine::QuestParams SparseParams(uint64_t seed);
inline constexpr size_t kSparseCorpora = 4;
std::string SparseFile(const std::string& dir, size_t corpus);

/// The request mix: three templates on each corpus, picked uniformly. An
/// odd count of distinct-cost requests keeps the median inside the middle
/// one's cluster.
inline constexpr double kSparsePatternsMinSup = 0.02;
inline constexpr double kSparseRulesMinSsup = 0.03;
inline constexpr double kSparseRulesMinConf = 0.5;
inline constexpr double kSparseSeqMinSup = 0.04;

}  // namespace specbench

#endif  // SPECBENCH_CORPORA_H_
