#include "src/rulemine/consequent_miner.h"

#include <cmath>

#include "src/seqmine/closed_sequential_miner.h"
#include "src/seqmine/prefixspan.h"

namespace specmine {

uint64_t ConfidenceSupportThreshold(double min_confidence,
                                    uint64_t total_points) {
  if (min_confidence <= 0.0) return 1;
  // Smallest k with k / total >= min_conf, guarding float error.
  double raw = min_confidence * static_cast<double>(total_points);
  uint64_t k = static_cast<uint64_t>(std::ceil(raw - 1e-9));
  return k == 0 ? 1 : k;
}

PatternSet MineConsequents(const SequenceDatabase& db,
                           const TemporalPointSet& points,
                           const ConsequentMinerOptions& options,
                           SequentialWorkspace* ws) {
  std::vector<Unit> units;
  units.reserve(points.TotalPoints());
  for (size_t i = 0; i < points.SupportingSequences(); ++i) {
    for (Pos j : points.points(i)) {
      // The consequent must occur strictly after the temporal point.
      units.push_back(Unit{points.seq(i), j + 1});
    }
  }
  return MineConsequents(UnitDatabase(db, std::move(units)), options, ws);
}

PatternSet MineConsequents(const UnitDatabase& units,
                           const ConsequentMinerOptions& options,
                           SequentialWorkspace* ws) {
  const uint64_t threshold =
      ConfidenceSupportThreshold(options.min_confidence, units.size());
  if (options.closed_pruning) {
    ClosedSeqMinerOptions closed_options;
    closed_options.min_support = threshold;
    closed_options.max_length = options.max_length;
    return MineClosedSequential(units, closed_options, nullptr, ws);
  }
  SeqMinerOptions full_options;
  full_options.min_support = threshold;
  full_options.max_length = options.max_length;
  full_options.max_patterns = options.max_consequents;
  PatternSet out;
  ScanFrequentSequential(units, full_options,
                         [&out](const Pattern& p, uint64_t support,
                                const std::vector<uint32_t>&) {
                           out.Add(p, support);
                           return true;
                         },
                         nullptr, ws);
  return out;
}

}  // namespace specmine
