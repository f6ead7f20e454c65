#include "src/rulemine/temporal_points.h"

#include "src/seqmine/occurrence_engine.h"

namespace specmine {

TemporalPointSet ComputeTemporalPoints(const Pattern& pattern,
                                       const SequenceDatabase& db) {
  TemporalPointSet out;
  for (SeqId s = 0; s < db.size(); ++s) {
    out.AddSequence(s, OccurrencePoints(pattern, db[s]));
  }
  return out;
}

}  // namespace specmine
