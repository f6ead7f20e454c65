#include "src/rulemine/premise_miner.h"

#include "src/seqmine/occurrence_engine.h"
#include "src/support/event_marks.h"

namespace specmine {

namespace {

// Earliest embedding end of `stem` in seq, where an empty stem "ends
// before position 0". Returns true iff embeddable, with *end = position of
// the stem's last event (or kNoPos for the empty stem).
bool StemEnd(const Pattern& stem, EventSpan seq, Pos* end) {
  if (stem.empty()) {
    *end = kNoPos;  // Interpreted as "points may start at position 0".
    return true;
  }
  *end = EarliestEmbeddingEnd(stem, seq, 0);
  return *end != kNoPos;
}

// True iff occ(premise-with-x-inserted-at-slot) == occ(premise) in every
// sequence. `stem` is premise minus its last event; the insertion slot is
// encoded in `stem_ins` (stem with x inserted). Equality holds iff, in
// every sequence with points, the modified stem still embeds and no
// occurrence of the last event falls in (stem_end, modified_stem_end].
bool InsertionPreservesPoints(const SequenceDatabase& db,
                              const Pattern& stem, const Pattern& stem_ins,
                              EventId last, const TemporalPointSet& points,
                              const CountingBackend* backend) {
  // Sequences without points impose nothing (occ subset of empty).
  for (size_t i = 0; i < points.SupportingSequences(); ++i) {
    const SeqId s = points.seq(i);
    const EventSpan seq = db[s];
    Pos t = kNoPos;
    if (!StemEnd(stem, seq, &t)) return false;  // Defensive.
    Pos t_ins = EarliestEmbeddingEnd(stem_ins, seq, 0);
    if (t_ins == kNoPos) return false;
    // Any occurrence of `last` in (t, t_ins] is a point of the premise
    // that the extended premise loses.
    Pos from = (t == kNoPos) ? 0 : t + 1;
    if (backend != nullptr) {
      // One range-emptiness query instead of the scalar window scan.
      if (backend->AnyInRange(last, s, from, t_ins)) return false;
      continue;
    }
    for (Pos p = from; p <= t_ins && p < seq.size(); ++p) {
      if (seq[p] == last) return false;
    }
  }
  return true;
}

// True iff some one-event insertion (anywhere before the last event)
// yields a premise with identical temporal points — i.e. this premise is
// not ⊑-maximal in its occurrence-equivalence class, so every rule it
// forms is Definition-5.2-redundant to the extended premise's rule, and
// (because forward growth preserves the equivalence) so are all rules of
// its extensions.
// Reusable scratch for InsertionEquivalentExists: a dense mark set plus
// the candidate list it deduplicates, shared across every premise of one
// scan so the hot path allocates nothing.
struct InsertionScratch {
  EventMarkSet seen;
  std::vector<EventId> candidates;
};

bool InsertionEquivalentExists(const SequenceDatabase& db,
                               const Pattern& premise,
                               const TemporalPointSet& points,
                               InsertionScratch* scratch,
                               const CountingBackend* backend) {
  const size_t n = premise.size();
  const EventId last = premise.last();
  Pattern stem(std::vector<EventId>(premise.events().begin(),
                                    premise.events().end() - 1));

  // The first sequence with points bounds the candidate events: the
  // modified stem must fully embed before that sequence's first point.
  if (points.SupportingSequences() == 0) return false;
  const EventSpan probe_seq = db[points.seq(0)];
  const Pos first_point = points.points(0).front();

  for (size_t slot = 0; slot < n; ++slot) {
    // Candidates: events of the probe sequence strictly before its first
    // point and after the embedding of stem[0..slot-1].
    Pos from = 0;
    if (slot > 0) {
      Pattern head(std::vector<EventId>(stem.events().begin(),
                                        stem.events().begin() + slot));
      Pos head_end = EarliestEmbeddingEnd(head, probe_seq, 0);
      if (head_end == kNoPos) continue;
      from = head_end + 1;
    }
    const size_t num_events = db.dictionary().size();
    scratch->seen.EnsureSize(num_events);
    scratch->seen.Clear();
    scratch->candidates.clear();
    for (Pos p = from; p < first_point && p < probe_seq.size(); ++p) {
      if (probe_seq[p] >= num_events) continue;  // Defensive.
      if (scratch->seen.TestAndSet(probe_seq[p])) {
        scratch->candidates.push_back(probe_seq[p]);
      }
    }
    for (EventId x : scratch->candidates) {
      Pattern stem_ins = stem.Insert(slot, x);
      if (InsertionPreservesPoints(db, stem, stem_ins, last, points,
                                   backend)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void ScanPremises(
    const SequenceDatabase& db, const PremiseMinerOptions& options,
    const std::function<bool(const Pattern&, const TemporalPointSet&)>& sink,
    SeqMinerStats* stats, const CountingBackend* backend) {
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  SeqMinerOptions scan_options;
  scan_options.min_support = options.min_s_support;
  scan_options.max_length = options.max_length;
  InsertionScratch scratch;
  // One point set reused across premises. Only a premise's supporting
  // sequences (unit index == SeqId for whole-sequence units, ascending)
  // can hold points, so only those are computed.
  TemporalPointSet points;
  ScanFrequentSequential(
      units, scan_options,
      [&](const Pattern& p, uint64_t /*support*/,
          const std::vector<uint32_t>& supporting) {
        points.Clear();
        for (uint32_t s : supporting) {
          points.AddSequence(s, OccurrencePoints(p, db[s]));
        }
        if (options.maximality_pruning &&
            InsertionEquivalentExists(db, p, points, &scratch, backend)) {
          // A point-equivalent longer premise exists; its rules dominate
          // this premise's rules under Definition 5.2, and the equivalence
          // propagates to every forward extension — prune the subtree.
          return false;
        }
        return sink(p, points);
      },
      stats);
}

}  // namespace specmine
