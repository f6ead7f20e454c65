// Unit + oracle tests for src/seqmine: occurrence engine, PrefixSpan,
// BIDE-style closed miner, generator miner.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/rulemine/consequent_miner.h"
#include "src/seqmine/closed_sequential_miner.h"
#include "src/seqmine/generator_miner.h"
#include "src/seqmine/occurrence_engine.h"
#include "src/seqmine/prefixspan.h"
#include "src/support/strings.h"
#include "src/support/random.h"

namespace specmine {
namespace {

SequenceDatabase MakeDb(const std::vector<std::string>& traces) {
  SequenceDatabaseBuilder db;
  for (const auto& t : traces) db.AddTraceFromString(t);
  return db.Build();
}

Pattern P(const SequenceDatabase& db, const std::string& names) {
  Pattern p;
  for (const auto& tok : SplitAndTrim(names, ' ')) {
    EventId id = db.dictionary().Lookup(tok);
    EXPECT_NE(id, kInvalidEvent) << tok;
    p = p.Extend(id);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Occurrence engine.

TEST(OccurrenceEngineTest, EarliestEmbeddingEnd) {
  SequenceDatabase db = MakeDb({"a x b x a b"});
  const EventSpan s = db[0];
  EXPECT_EQ(EarliestEmbeddingEnd(P(db, "a b"), s), 2u);
  EXPECT_EQ(EarliestEmbeddingEnd(P(db, "a b a"), s), 4u);
  EXPECT_EQ(EarliestEmbeddingEnd(P(db, "b a b"), s), 5u);
  EXPECT_EQ(EarliestEmbeddingEnd(P(db, "b b b"), s), kNoPos);
  EXPECT_EQ(EarliestEmbeddingEnd(P(db, "a"), s, 1), 4u);  // Offset.
  EXPECT_EQ(EmbedsAt(P(db, "a b"), s, 3), true);
  EXPECT_EQ(EmbedsAt(P(db, "a b"), s, 5), false);
}

TEST(OccurrenceEngineTest, OccurrencePointsDefinition51) {
  // occ(P, S): positions j with S[j] = last(P) and prefix S[0..j] ⊒ P.
  SequenceDatabase db = MakeDb({"a b b a b"});
  const EventSpan s = db[0];
  // <a, b>: prefix must contain a before the b. b's at 1, 2, 4; all after
  // the first a at 0.
  EXPECT_EQ(OccurrencePoints(P(db, "a b"), s), (std::vector<Pos>{1, 2, 4}));
  // <b>: every b.
  EXPECT_EQ(OccurrencePoints(P(db, "b"), s), (std::vector<Pos>{1, 2, 4}));
  // <b, a>: a's after the first b -> position 3 only.
  EXPECT_EQ(OccurrencePoints(P(db, "b a"), s), (std::vector<Pos>{3}));
  // <a, b, b>: earliest end of <a, b> prefix is 1; b's after -> 2, 4.
  EXPECT_EQ(OccurrencePoints(P(db, "a b b"), s), (std::vector<Pos>{2, 4}));
  // Absent premise.
  EXPECT_TRUE(OccurrencePoints(P(db, "b b b b"), s).empty());
}

TEST(OccurrenceEngineTest, OccurrencePointsWithOffset) {
  SequenceDatabase db = MakeDb({"a b a b"});
  const EventSpan s = db[0];
  EXPECT_EQ(OccurrencePoints(P(db, "a b"), s, 1), (std::vector<Pos>{3}));
  EXPECT_EQ(OccurrencePoints(P(db, "a"), s, 1), (std::vector<Pos>{2}));
}

TEST(OccurrenceEngineTest, CountOccurrencesAcrossSequences) {
  SequenceDatabase db = MakeDb({"a b b", "b a b", "x"});
  EXPECT_EQ(CountOccurrences(P(db, "a b"), db), 3u);  // 2 + 1 + 0.
}

TEST(OccurrenceEngineTest, LatestEmbeddingStart) {
  SequenceDatabase db = MakeDb({"a b a b a"});
  const EventSpan s = db[0];
  EXPECT_EQ(LatestEmbeddingStart(P(db, "a b"), s, 0, 4), 2u);
  EXPECT_EQ(LatestEmbeddingStart(P(db, "a b"), s, 0, 3), 2u);
  EXPECT_EQ(LatestEmbeddingStart(P(db, "a b"), s, 0, 2), 0u);
  EXPECT_EQ(LatestEmbeddingStart(P(db, "a b"), s, 3, 4), kNoPos);
  EXPECT_EQ(LatestEmbeddingStart(P(db, "a"), s, 0, 4), 4u);
}

// ---------------------------------------------------------------------------
// Brute-force oracle for sequential mining over units.

uint64_t OracleSupport(const UnitDatabase& units, const Pattern& p) {
  uint64_t n = 0;
  for (const Unit& u : units.units()) {
    if (EmbedsAt(p, units.db()[u.seq], u.start)) ++n;
  }
  return n;
}

// Enumerates all frequent patterns by BFS (complete under apriori).
std::map<Pattern, uint64_t> OracleFrequent(const UnitDatabase& units,
                                           uint64_t min_sup,
                                           size_t max_len = 0) {
  std::map<Pattern, uint64_t> out;
  std::vector<Pattern> frontier;
  const size_t num_events = units.db().dictionary().size();
  for (EventId e = 0; e < num_events; ++e) {
    Pattern p{e};
    uint64_t sup = OracleSupport(units, p);
    if (sup >= min_sup) {
      out[p] = sup;
      frontier.push_back(p);
    }
  }
  while (!frontier.empty() &&
         (max_len == 0 || frontier.front().size() < max_len)) {
    std::vector<Pattern> next;
    for (const Pattern& p : frontier) {
      for (EventId e = 0; e < num_events; ++e) {
        Pattern q = p.Extend(e);
        uint64_t sup = OracleSupport(units, q);
        if (sup >= min_sup) {
          out[q] = sup;
          next.push_back(q);
        }
      }
    }
    frontier = std::move(next);
  }
  return out;
}

std::map<Pattern, uint64_t> ToMap(const PatternSet& set) {
  std::map<Pattern, uint64_t> out;
  for (const auto& it : set.items()) out[it.pattern] = it.support;
  return out;
}

// Collects ScanFrequentSequential's emissions, in emission order.
PatternSet CollectFrequent(const UnitDatabase& units,
                           const SeqMinerOptions& options,
                           SeqMinerStats* stats = nullptr,
                           SequentialWorkspace* ws = nullptr) {
  PatternSet out;
  ScanFrequentSequential(
      units, options,
      [&out](const Pattern& p, uint64_t support,
             const std::vector<uint32_t>&) {
        out.Add(p, support);
        return true;
      },
      stats, ws);
  return out;
}

// True iff the emitted patterns are strictly increasing in lexicographic
// order of their event ids: DFS preorder with ascending-id children, and
// no pattern emitted twice.
bool StrictlyLexIncreasing(const PatternSet& set) {
  for (size_t i = 1; i < set.size(); ++i) {
    if (!(set[i - 1].pattern.events() < set[i].pattern.events())) {
      return false;
    }
  }
  return true;
}

SequenceDatabase RandomDb(uint64_t seed, size_t num_seqs, size_t max_len,
                          size_t alphabet) {
  Rng rng(seed);
  SequenceDatabaseBuilder db;
  for (size_t i = 0; i < alphabet; ++i) {
    db.mutable_dictionary()->Intern("e" + std::to_string(i));
  }
  for (size_t s = 0; s < num_seqs; ++s) {
    Sequence seq;
    size_t len = 1 + rng.Uniform(max_len);
    for (size_t k = 0; k < len; ++k) {
      seq.Append(static_cast<EventId>(rng.Uniform(alphabet)));
    }
    db.AddSequence(seq);
  }
  return db.Build();
}

// Units shaped like the forward rule miner's: one per random "temporal
// point" j of each sequence, starting strictly after it. The start may be
// the sequence length (an empty suffix).
std::vector<Unit> RandomPointUnits(const SequenceDatabase& db,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Unit> units;
  for (SeqId s = 0; s < db.size(); ++s) {
    for (Pos j = 0; j < db[s].size(); ++j) {
      if (rng.Uniform(2) == 0) units.push_back(Unit{s, j + 1});
    }
  }
  return units;
}

// `db` with every sequence reversed, over the same dictionary.
SequenceDatabase Reversed(const SequenceDatabase& db) {
  SequenceDatabaseBuilder rev;
  for (size_t i = 0; i < db.dictionary().size(); ++i) {
    rev.mutable_dictionary()->Intern(
        db.dictionary().Name(static_cast<EventId>(i)));
  }
  for (EventSpan seq : db) {
    std::vector<EventId> events(std::make_reverse_iterator(seq.end()),
                                std::make_reverse_iterator(seq.begin()));
    rev.AddSequence(EventSpan(events));
  }
  return rev.Build();
}

// Units shaped like the backward rule miner's, into Reversed(db): the
// strict prefix before point j of a length-L sequence is the reversal's
// suffix from L - j (an empty suffix when j == 0).
std::vector<Unit> ReversedPointUnits(const SequenceDatabase& db,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Unit> units;
  for (SeqId s = 0; s < db.size(); ++s) {
    const Pos len = static_cast<Pos>(db[s].size());
    for (Pos j = 0; j < len; ++j) {
      if (rng.Uniform(2) == 0) units.push_back(Unit{s, len - j});
    }
  }
  return units;
}

// ---------------------------------------------------------------------------
// PrefixSpan.

TEST(PrefixSpanTest, SimpleHandComputedExample) {
  SequenceDatabase db = MakeDb({"a b c", "a c", "b c"});
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  SeqMinerOptions options;
  options.min_support = 2;
  PatternSet out = CollectFrequent(units, options);
  auto m = ToMap(out);
  EXPECT_EQ(m.at(P(db, "a")), 2u);
  EXPECT_EQ(m.at(P(db, "b")), 2u);
  EXPECT_EQ(m.at(P(db, "c")), 3u);
  EXPECT_EQ(m.at(P(db, "a c")), 2u);
  EXPECT_EQ(m.at(P(db, "b c")), 2u);
  // <a, b> occurs in trace 0 only: below min_support, not emitted.
  EXPECT_EQ(m.count(P(db, "a b")), 0u);
}

TEST(PrefixSpanTest, SupportCountsUnitsNotOccurrences) {
  SequenceDatabase db = MakeDb({"a a a"});
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  SeqMinerOptions options;
  options.min_support = 1;
  auto m = ToMap(CollectFrequent(units, options));
  EXPECT_EQ(m.at(P(db, "a")), 1u);
  EXPECT_EQ(m.at(P(db, "a a")), 1u);
  EXPECT_EQ(m.at(P(db, "a a a")), 1u);
  EXPECT_EQ(m.count(P(db, "a a a a")), 0u);
}

TEST(PrefixSpanTest, RespectsMaxLength) {
  SequenceDatabase db = MakeDb({"a b c d"});
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  SeqMinerOptions options;
  options.min_support = 1;
  options.max_length = 2;
  PatternSet out = CollectFrequent(units, options);
  for (const auto& it : out.items()) {
    EXPECT_LE(it.pattern.size(), 2u);
  }
}

TEST(PrefixSpanTest, MaxPatternsTruncates) {
  SequenceDatabase db = MakeDb({"a b c d e f"});
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  SeqMinerOptions options;
  options.min_support = 1;
  options.max_patterns = 5;
  SeqMinerStats stats;
  PatternSet out = CollectFrequent(units, options, &stats);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_TRUE(stats.truncated);
}

TEST(PrefixSpanTest, UnitsWithOffsetsRestrictMatching) {
  SequenceDatabase db = MakeDb({"a b a b"});
  // Two units into the same sequence at different offsets.
  UnitDatabase units(db, {Unit{0, 0}, Unit{0, 2}});
  SeqMinerOptions options;
  options.min_support = 2;
  auto m = ToMap(CollectFrequent(units, options));
  EXPECT_EQ(m.at(P(db, "a b")), 2u);   // Embeds in both suffixes.
  EXPECT_EQ(m.count(P(db, "a b a")), 0u);  // Only in the first.
}

TEST(PrefixSpanTest, MatchesOracleOnRandomDatabases) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SequenceDatabase db = RandomDb(seed, 6, 8, 4);
    UnitDatabase units = UnitDatabase::WholeSequences(db);
    for (uint64_t min_sup : {1u, 2u, 3u}) {
      SeqMinerOptions options;
      options.min_support = min_sup;
      PatternSet got = CollectFrequent(units, options);
      auto want = OracleFrequent(units, min_sup);
      EXPECT_EQ(ToMap(got), want) << "seed=" << seed << " min_sup=" << min_sup;
      EXPECT_TRUE(StrictlyLexIncreasing(got))
          << "seed=" << seed << " min_sup=" << min_sup;
    }
  }
}

TEST(PrefixSpanTest, MatchesOracleOnPointUnits) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SequenceDatabase db = RandomDb(seed + 500, 5, 8, 4);
    SequenceDatabase rev = Reversed(db);
    const std::vector<UnitDatabase> shapes = {
        UnitDatabase(db, RandomPointUnits(db, seed)),
        UnitDatabase(rev, ReversedPointUnits(db, seed))};
    for (size_t shape = 0; shape < shapes.size(); ++shape) {
      for (uint64_t min_sup : {1u, 2u, 4u}) {
        SeqMinerOptions options;
        options.min_support = min_sup;
        PatternSet got = CollectFrequent(shapes[shape], options);
        EXPECT_EQ(ToMap(got), OracleFrequent(shapes[shape], min_sup))
            << "seed=" << seed << " shape=" << shape << " min_sup=" << min_sup;
        EXPECT_TRUE(StrictlyLexIncreasing(got))
            << "seed=" << seed << " shape=" << shape << " min_sup=" << min_sup;
      }
    }
  }
}

// CollectFrequentExtensions' threshold contract, called directly. An
// extension map flattened to (event, [(unit, last_match)]) rows.
using FlatExtensions =
    std::vector<std::pair<EventId, std::vector<std::pair<uint32_t, Pos>>>>;

FlatExtensions Flatten(const SeqExtensionMap& map) {
  FlatExtensions out;
  for (const auto& [ev, entries] : map) {
    out.emplace_back(ev, std::vector<std::pair<uint32_t, Pos>>{});
    for (const SeqEntry& e : entries) {
      out.back().second.emplace_back(e.unit, e.last_match);
    }
  }
  return out;
}

// The kernel's definition, scanned naively: per entry, the first
// occurrence of each event in its remaining suffix.
FlatExtensions OracleExtensions(const UnitDatabase& units,
                                const std::vector<SeqEntry>& entries,
                                bool at_root) {
  std::map<EventId, std::vector<std::pair<uint32_t, Pos>>> grouped;
  for (const SeqEntry& entry : entries) {
    const Unit& unit = units.units()[entry.unit];
    const EventSpan seq = units.db()[unit.seq];
    std::vector<bool> met(units.db().dictionary().size(), false);
    for (Pos p = at_root ? unit.start : entry.last_match + 1; p < seq.size();
         ++p) {
      if (met[seq[p]]) continue;
      met[seq[p]] = true;
      grouped[seq[p]].emplace_back(entry.unit, p);
    }
  }
  return FlatExtensions(grouped.begin(), grouped.end());
}

// At every threshold k from 1 to n + 1 over n entries, the kernel returns
// exactly its k = 1 map (itself checked against the naive scan) minus the
// buckets below k, entry for entry. Whole-sequence units and overlapping
// temporal-point units, at the root and at every root extension's
// projection; one workspace throughout, so stale per-event state from an
// earlier call would show. Every k moves the walk/probe boundary of the
// count pass by one entry.
TEST(CollectFrequentExtensionsTest, ThresholdKeepsExactlyTheBucketsReachingIt) {
  SequentialWorkspace ws;
  const auto collect = [&ws](const UnitDatabase& units,
                             const std::vector<SeqEntry>& entries,
                             bool at_root, uint64_t k) {
    SeqExtensionMap map = ws.acc.AcquireMap();
    CollectFrequentExtensions(units, entries, at_root, k, &ws, &map);
    FlatExtensions flat = Flatten(map);
    ws.acc.ReleaseMap(std::move(map));
    return flat;
  };
  const auto check = [&](const UnitDatabase& units,
                         const std::vector<SeqEntry>& entries, bool at_root,
                         const std::string& what) {
    const FlatExtensions all = collect(units, entries, at_root, 1);
    EXPECT_EQ(all, OracleExtensions(units, entries, at_root)) << what;
    for (uint64_t k = 2; k <= entries.size() + 1; ++k) {
      FlatExtensions want;
      for (const auto& row : all) {
        if (row.second.size() >= k) want.push_back(row);
      }
      EXPECT_EQ(collect(units, entries, at_root, k), want)
          << what << " k=" << k;
    }
  };
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const SequenceDatabase db = RandomDb(seed + 700, 10, 12, 5);
    const std::vector<UnitDatabase> shapes = {
        UnitDatabase::WholeSequences(db),
        UnitDatabase(db, RandomPointUnits(db, seed))};
    for (size_t shape = 0; shape < shapes.size(); ++shape) {
      const UnitDatabase& units = shapes[shape];
      const std::string what =
          "seed=" + std::to_string(seed) + " shape=" + std::to_string(shape);
      std::vector<SeqEntry> root;
      for (uint32_t u = 0; u < units.size(); ++u) root.push_back({u, 0});
      check(units, root, /*at_root=*/true, what + " root");
      for (const auto& [ev, rows] : collect(units, root, true, 1)) {
        std::vector<SeqEntry> projected;
        for (const auto& [unit, pos] : rows) projected.push_back({unit, pos});
        check(units, projected, /*at_root=*/false,
              what + " <e" + std::to_string(ev) + ">");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Closed sequential miner.

// Oracle: closed = frequent with no frequent proper super-sequence of equal
// support.
std::map<Pattern, uint64_t> OracleClosed(const UnitDatabase& units,
                                         uint64_t min_sup) {
  auto all = OracleFrequent(units, min_sup);
  std::map<Pattern, uint64_t> out;
  for (const auto& [p, sup] : all) {
    bool closed = true;
    for (const auto& [q, qsup] : all) {
      if (q.size() <= p.size() || qsup != sup) continue;
      if (p.IsSubsequenceOf(q)) {
        closed = false;
        break;
      }
    }
    if (closed) out[p] = sup;
  }
  return out;
}

TEST(ClosedSequentialTest, HandExample) {
  // Classic: "c a a b c", "a b c b", "a b b c a" with min_sup 2.
  SequenceDatabase db = MakeDb({"c a a b c", "a b c b", "a b b c a"});
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  ClosedSeqMinerOptions options;
  options.min_support = 2;
  auto got = ToMap(MineClosedSequential(units, options));
  auto want = OracleClosed(units, 2);
  EXPECT_EQ(got, want);
  // <a, b> is absorbed by <a, b, c> (both support 3).
  EXPECT_EQ(got.count(P(db, "a b")), 0u);
  EXPECT_EQ(got.at(P(db, "a b c")), 3u);
}

TEST(ClosedSequentialTest, SingleTraceEmitsOnlyMaximal) {
  SequenceDatabase db = MakeDb({"a b c"});
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  ClosedSeqMinerOptions options;
  options.min_support = 1;
  auto got = ToMap(MineClosedSequential(units, options));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.begin()->first, P(db, "a b c"));
}

TEST(ClosedSequentialTest, MatchesOracleOnRandomDatabases) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SequenceDatabase db = RandomDb(seed + 100, 6, 8, 4);
    UnitDatabase units = UnitDatabase::WholeSequences(db);
    for (uint64_t min_sup : {1u, 2u, 3u}) {
      ClosedSeqMinerOptions options;
      options.min_support = min_sup;
      PatternSet got = MineClosedSequential(units, options);
      auto want = OracleClosed(units, min_sup);
      EXPECT_EQ(ToMap(got), want) << "seed=" << seed << " min_sup=" << min_sup;
      EXPECT_TRUE(StrictlyLexIncreasing(got))
          << "seed=" << seed << " min_sup=" << min_sup;
    }
  }
}

// The rule miners' unit databases: several units per sequence at non-zero
// starts (forward consequents) and units into a reversed database
// (backward consequents), each with BackScan on and off.
TEST(ClosedSequentialTest, MatchesOracleOnPointUnits) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SequenceDatabase db = RandomDb(seed + 400, 5, 8, 4);
    SequenceDatabase rev = Reversed(db);
    const std::vector<UnitDatabase> shapes = {
        UnitDatabase(db, RandomPointUnits(db, seed)),
        UnitDatabase(rev, ReversedPointUnits(db, seed))};
    for (size_t shape = 0; shape < shapes.size(); ++shape) {
      for (uint64_t min_sup : {1u, 2u, 4u}) {
        auto want = OracleClosed(shapes[shape], min_sup);
        for (bool backscan : {true, false}) {
          ClosedSeqMinerOptions options;
          options.min_support = min_sup;
          options.backscan_pruning = backscan;
          PatternSet got = MineClosedSequential(shapes[shape], options);
          EXPECT_EQ(ToMap(got), want)
              << "seed=" << seed << " shape=" << shape
              << " min_sup=" << min_sup << " backscan=" << backscan;
          EXPECT_TRUE(StrictlyLexIncreasing(got))
              << "seed=" << seed << " shape=" << shape
              << " min_sup=" << min_sup << " backscan=" << backscan;
        }
      }
    }
  }
}

// The period checks embed units lazily, as a slot's scan first reaches
// them. Here y precedes a in the first unit only, so the slot-0 scan of
// <a, b> stops at the second unit, and x sits between a and b in every
// unit but the last, so the slot-1 scan embeds the rest and only the last
// unit breaks the one common period: <a, b> stays closed. With x in the
// last unit too, <a, x, b> absorbs it.
TEST(ClosedSequentialTest, LastUnitBreaksTheOnlyCommonPeriod) {
  for (const char* last : {"a c b", "a x c b"}) {
    SequenceDatabase db = MakeDb({"y a x b", "a x b", "a x c b", last});
    UnitDatabase units = UnitDatabase::WholeSequences(db);
    for (uint64_t min_sup : {1u, 2u, 3u, 4u}) {
      const auto want = OracleClosed(units, min_sup);
      for (bool backscan : {true, false}) {
        ClosedSeqMinerOptions options;
        options.min_support = min_sup;
        options.backscan_pruning = backscan;
        EXPECT_EQ(ToMap(MineClosedSequential(units, options)), want)
            << "last=" << last << " min_sup=" << min_sup
            << " backscan=" << backscan;
      }
    }
    ClosedSeqMinerOptions options;
    options.min_support = 4;
    const auto got = ToMap(MineClosedSequential(units, options));
    const bool x_everywhere = std::string(last) == "a x c b";
    EXPECT_EQ(got.count(P(db, "a b")), x_everywhere ? 0u : 1u) << last;
    EXPECT_EQ(got.count(P(db, "a x b")), x_everywhere ? 1u : 0u) << last;
  }
}

TEST(ClosedSequentialTest, BackScanDoesNotChangeOutput) {
  for (uint64_t seed = 200; seed <= 210; ++seed) {
    SequenceDatabase db = RandomDb(seed, 7, 9, 4);
    UnitDatabase units = UnitDatabase::WholeSequences(db);
    ClosedSeqMinerOptions with, without;
    with.min_support = 2;
    without.min_support = 2;
    without.backscan_pruning = false;
    auto a = ToMap(MineClosedSequential(units, with));
    auto b = ToMap(MineClosedSequential(units, without));
    EXPECT_EQ(a, b) << "seed=" << seed;
  }
}

TEST(ClosedSequentialTest, BackScanPrunesNodes) {
  SequenceDatabase db = RandomDb(77, 20, 12, 3);
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  ClosedSeqMinerOptions with, without;
  with.min_support = 2;
  without.min_support = 2;
  without.backscan_pruning = false;
  SeqMinerStats sw, swo;
  MineClosedSequential(units, with, &sw);
  MineClosedSequential(units, without, &swo);
  EXPECT_LT(sw.nodes_visited, swo.nodes_visited);
}

// ---------------------------------------------------------------------------
// Workspace reuse: one SequentialWorkspace kept warm across many runs (as a
// rule run keeps one across its premises) must leave no trace between them.

bool SameStats(const SeqMinerStats& a, const SeqMinerStats& b) {
  return a.nodes_visited == b.nodes_visited &&
         a.patterns_emitted == b.patterns_emitted &&
         a.truncated == b.truncated && a.stopped == b.stopped;
}

// A large alphabet, then a small one, then large again (the workspace's
// slot tables shrink in use but not in size), over whole-sequence and
// point units at several thresholds.
TEST(SequentialWorkspaceTest, ReuseAcrossDatabasesMatchesFreshAndOracle) {
  SequentialWorkspace ws;
  const size_t alphabets[] = {12, 3, 12, 3, 12};
  for (size_t round = 0; round < std::size(alphabets); ++round) {
    const uint64_t seed = 900 + round;
    SequenceDatabase db = RandomDb(seed, 6, 8, alphabets[round]);
    const std::vector<UnitDatabase> shapes = {
        UnitDatabase::WholeSequences(db),
        UnitDatabase(db, RandomPointUnits(db, seed))};
    for (size_t shape = 0; shape < shapes.size(); ++shape) {
      const UnitDatabase& units = shapes[shape];
      for (uint64_t min_sup : {1u, 2u, 3u}) {
        SCOPED_TRACE("round=" + std::to_string(round) +
                     " shape=" + std::to_string(shape) +
                     " min_sup=" + std::to_string(min_sup));
        SeqMinerOptions options;
        options.min_support = min_sup;
        SeqMinerStats warm_stats, fresh_stats;
        PatternSet warm = CollectFrequent(units, options, &warm_stats, &ws);
        PatternSet fresh = CollectFrequent(units, options, &fresh_stats);
        EXPECT_EQ(warm.items(), fresh.items());
        EXPECT_TRUE(SameStats(warm_stats, fresh_stats));
        EXPECT_EQ(ToMap(warm), OracleFrequent(units, min_sup));

        const auto want_closed = OracleClosed(units, min_sup);
        for (bool backscan : {true, false}) {
          ClosedSeqMinerOptions closed;
          closed.min_support = min_sup;
          closed.backscan_pruning = backscan;
          PatternSet warm_closed =
              MineClosedSequential(units, closed, &warm_stats, &ws);
          PatternSet fresh_closed =
              MineClosedSequential(units, closed, &fresh_stats);
          EXPECT_EQ(warm_closed.items(), fresh_closed.items())
              << "backscan=" << backscan;
          EXPECT_TRUE(SameStats(warm_stats, fresh_stats))
              << "backscan=" << backscan;
          EXPECT_EQ(ToMap(warm_closed), want_closed)
              << "backscan=" << backscan;
        }
      }
    }
  }
}

// The rule miners' nesting: consequents are mined inside the premise
// scan's sink, with a second workspace. Closed and full consequents must
// match the same premises' consequents mined one at a time afterwards.
TEST(SequentialWorkspaceTest, NestedConsequentMiningMatchesUnnested) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SequenceDatabase db = RandomDb(seed + 950, 8, 9, 4);
    UnitDatabase units = UnitDatabase::WholeSequences(db);
    SeqMinerOptions premise_options;
    premise_options.min_support = 3;
    for (bool closed : {true, false}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " closed=" + std::to_string(closed));
      ConsequentMinerOptions options;
      options.min_confidence = 0.5;
      options.closed_pruning = closed;
      SequentialWorkspace premise_ws, consequent_ws;
      std::vector<Pattern> premises;
      std::vector<TemporalPointSet> points;
      std::vector<PatternSet> nested;
      ScanFrequentSequential(
          units, premise_options,
          [&](const Pattern& p, uint64_t, const std::vector<uint32_t>&) {
            premises.push_back(p);
            points.push_back(ComputeTemporalPoints(p, db));
            nested.push_back(
                MineConsequents(db, points.back(), options, &consequent_ws));
            return true;
          },
          nullptr, &premise_ws);
      ASSERT_FALSE(premises.empty());
      EXPECT_EQ(ToMap(CollectFrequent(units, premise_options)).size(),
                premises.size());
      for (size_t i = 0; i < premises.size(); ++i) {
        EXPECT_EQ(nested[i].items(),
                  MineConsequents(db, points[i], options).items())
            << "premise " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Generator miner.

std::map<Pattern, uint64_t> OracleGenerators(const UnitDatabase& units,
                                             uint64_t min_sup) {
  auto all = OracleFrequent(units, min_sup);
  std::map<Pattern, uint64_t> out;
  for (const auto& [p, sup] : all) {
    bool generator = true;
    // Check all proper subsequences via single deletions (sufficient by
    // support monotonicity).
    for (size_t k = 0; k < p.size() && generator; ++k) {
      Pattern d = p.Erase(k);
      uint64_t dsup =
          d.empty() ? units.size() : OracleSupport(units, d);
      if (dsup == sup) generator = false;
    }
    if (generator) out[p] = sup;
  }
  return out;
}

TEST(GeneratorMinerTest, HandExample) {
  SequenceDatabase db = MakeDb({"a b c", "a b c", "b c a"});
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  GeneratorMinerOptions options;
  options.min_support = 2;
  auto got = ToMap(MineSequentialGenerators(units, options));
  auto want = OracleGenerators(units, 2);
  EXPECT_EQ(got, want);
  // <b, c> has support 3, same as <b> and <c> -> not a generator.
  EXPECT_EQ(got.count(P(db, "b c")), 0u);
}

TEST(GeneratorMinerTest, MatchesOracleOnRandomDatabases) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SequenceDatabase db = RandomDb(seed + 300, 6, 8, 4);
    UnitDatabase units = UnitDatabase::WholeSequences(db);
    for (uint64_t min_sup : {1u, 2u}) {
      GeneratorMinerOptions options;
      options.min_support = min_sup;
      auto got = ToMap(MineSequentialGenerators(units, options));
      auto want = OracleGenerators(units, min_sup);
      EXPECT_EQ(got, want) << "seed=" << seed << " min_sup=" << min_sup;
    }
  }
}

TEST(GeneratorMinerTest, EveryFrequentPatternDominatedByGenerator) {
  // Structural property: for every frequent pattern there is a generator
  // subsequence with the same support.
  SequenceDatabase db = RandomDb(55, 8, 8, 4);
  UnitDatabase units = UnitDatabase::WholeSequences(db);
  auto all = OracleFrequent(units, 2);
  GeneratorMinerOptions options;
  options.min_support = 2;
  auto gens = ToMap(MineSequentialGenerators(units, options));
  for (const auto& [p, sup] : all) {
    bool covered = false;
    for (const auto& [g, gsup] : gens) {
      if (gsup == sup && g.IsSubsequenceOf(p)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << p.ToString();
  }
}

}  // namespace
}  // namespace specmine
