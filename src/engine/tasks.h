// Engine task descriptors: one small struct per miner, each wrapping that
// miner's option struct, plus the up-front Status validation the miners'
// own entry points do not do. A task names *what* to mine; the Engine
// supplies the database, the cached counting index, and the shared pool.

#ifndef SPECMINE_ENGINE_TASKS_H_
#define SPECMINE_ENGINE_TASKS_H_

#include "src/episode/minepi.h"
#include "src/episode/winepi.h"
#include "src/itermine/closed_miner.h"
#include "src/itermine/full_miner.h"
#include "src/itermine/generators.h"
#include "src/rulemine/rule_miner.h"
#include "src/seqmine/closed_sequential_miner.h"
#include "src/seqmine/generator_miner.h"
#include "src/seqmine/prefixspan.h"
#include "src/support/status.h"
#include "src/twoevent/perracotta.h"

namespace specmine {

/// \brief Mine every frequent iterative pattern (QRE instance support).
/// This task streams: the sink sees each pattern as the DFS emits it and
/// may prune subtrees. It is also the task Engine::MineSharded
/// parallelizes per shard on .smdbset sessions.
struct FullPatternsTask {
  /// Threshold, length/emission caps, and thread count.
  IterMinerOptions options;
  /// Engine::MineSharded only: consult and refresh the on-disk phase-1
  /// candidate cache (`<manifest>.p1c`, see phase1_cache.h), so re-mining
  /// after an append scans only the new shards. Output is byte-identical
  /// either way; set false to force full scans (e.g. for benchmarking the
  /// cold path). Ignored by the non-sharded Mine.
  bool phase1_cache = true;
};

/// \brief Mine the closed frequent iterative patterns.
struct ClosedTask {
  /// Threshold plus the P1/P2/P3 prune and infix-check toggles.
  ClosedIterMinerOptions options;
};

/// \brief Mine the frequent iterative generators.
struct GeneratorsTask {
  /// Threshold, length cap, and thread count.
  IterGeneratorMinerOptions options;
};

/// \brief Mine recurrent rules (forward), or past-time rules when
/// \p backward is set (MineBackwardRules semantics).
struct RulesTask {
  /// Supports, confidence, length caps, NR-pipeline and thread options.
  RuleMinerOptions options;
  /// False: forward rules "pre -> eventually post". True: past-time
  /// rules "pre -> previously post" (the paper's Section 8 future work).
  bool backward = false;
};

/// \brief Mine the full set of frequent sequential patterns (classic
/// sequence-count support over whole sequences).
struct SequentialTask {
  /// Threshold and length cap.
  SeqMinerOptions options;
};

/// \brief Mine the closed frequent sequential patterns (BIDE-style).
struct ClosedSequentialTask {
  /// Threshold and length cap.
  ClosedSeqMinerOptions options;
};

/// \brief Mine the frequent sequential generators.
struct SequentialGeneratorsTask {
  /// Threshold and length cap.
  GeneratorMinerOptions options;
};

/// \brief Mine serial episodes, WINEPI (window counts) or MINEPI (minimal
/// occurrences).
struct EpisodeTask {
  /// Which episode semantics to run.
  enum class Algorithm { kWinepi, kMinepi };
  Algorithm algorithm = Algorithm::kWinepi;
  /// Options for Algorithm::kWinepi (ignored under kMinepi).
  WinepiOptions winepi;
  /// Options for Algorithm::kMinepi (ignored under kWinepi).
  MinepiOptions minepi;
};

/// \brief Mine Perracotta-style two-event temporal rules.
struct TwoEventTask {
  /// Satisfaction-rate threshold and relevance floor.
  PerracottaOptions options;
};

// ---------------------------------------------------------------------------
// Option validation. Each returns OK or InvalidArgument naming the bad
// field — the Engine rejects a task before touching the database, so a
// zero support threshold or an out-of-range confidence is an error value
// instead of undefined mining behavior.

Status Validate(const IterMinerOptions& options);
Status Validate(const ClosedIterMinerOptions& options);
Status Validate(const IterGeneratorMinerOptions& options);
Status Validate(const RuleMinerOptions& options);
Status Validate(const SeqMinerOptions& options);
Status Validate(const ClosedSeqMinerOptions& options);
Status Validate(const GeneratorMinerOptions& options);
Status Validate(const WinepiOptions& options);
Status Validate(const MinepiOptions& options);
Status Validate(const PerracottaOptions& options);

Status Validate(const FullPatternsTask& task);
Status Validate(const ClosedTask& task);
Status Validate(const GeneratorsTask& task);
Status Validate(const RulesTask& task);
Status Validate(const SequentialTask& task);
Status Validate(const ClosedSequentialTask& task);
Status Validate(const SequentialGeneratorsTask& task);
Status Validate(const EpisodeTask& task);
Status Validate(const TwoEventTask& task);

}  // namespace specmine

#endif  // SPECMINE_ENGINE_TASKS_H_
