// The layout-equivalence property of the one counting index: the
// projection queries on the bitmap layout (a HybridIndex at
// kBitmapDenseCutoff), the tuned hybrid cutoff and an all-sparse index
// agree with the scalar QRE matcher (FindAllInstances on P++<e> and
// <e>++P, which no index touches), and every miner produces
// byte-identical output — patterns, supports, rules, emission order — on
// both layouts, across randomized databases, thresholds, thread counts,
// and the plain / sharded execution paths, against the brute-force miners
// where the corpus is small and the bitmap layout on one thread
// otherwise. A sharded session's auto backend, resolved over its merged
// arena, reproduces the eager-merge output exactly, including in
// quarantined-shard degraded mode. Plus the bitrow word primitives
// against a per-bit reference (word-boundary grids, degenerate and random
// rows, the union's untouched-words contract), the word-mask edge cases
// (sequence lengths straddling the 64-bit word boundary), the adaptive
// chooser's bitmap/hybrid verdicts, and the explicit-bitmap table cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "src/itermine/brute_force.h"
#include "src/itermine/hybrid_index.h"
#include "src/itermine/projection.h"
#include "src/itermine/qre_verifier.h"
#include "src/rulemine/backward_rules.h"
#include "src/rulemine/rule_miner.h"
#include "src/seqmine/occurrence_engine.h"
#include "src/support/random.h"
#include "src/trace/shard_set.h"

namespace specmine {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
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

std::string Render(const PatternSet& set, const EventDictionary& dict) {
  return set.ToString(dict);
}

// Projection maps as comparable vectors.
using ForwardEntries = std::vector<std::pair<EventId, InstanceList>>;
using BackwardEntries = std::vector<std::tuple<EventId, uint64_t, bool>>;

ForwardEntries Entries(const ForwardExtensionMap& map) {
  return ForwardEntries(map.begin(), map.end());
}

BackwardEntries Entries(const BackwardExtensionMap& map) {
  BackwardEntries out;
  for (const auto& [ev, ext] : map) {
    out.emplace_back(ev, ext.support, ext.all_adjacent);
  }
  return out;
}

// The scalar references for the projection queries at min_count 1, from
// the QRE matcher alone: every event e with an instance of P++<e>, with
// those instances.
ForwardEntries OracleForward(const SequenceDatabase& db, const Pattern& pat) {
  ForwardEntries out;
  for (EventId e = 0; e < db.dictionary().size(); ++e) {
    InstanceList insts = FindAllInstances(pat.Extend(e), db);
    if (!insts.empty()) out.emplace_back(e, std::move(insts));
  }
  return out;
}

// Every event e with an instance of <e>++P: the instance count, and
// whether e sits right before P's first event in every instance (the
// instance's second pattern event is its first alphabet event after the
// start).
BackwardEntries OracleBackward(const SequenceDatabase& db,
                               const Pattern& pat) {
  BackwardEntries out;
  for (EventId e = 0; e < db.dictionary().size(); ++e) {
    const Pattern ext = pat.Prepend(e);
    const InstanceList insts = FindAllInstances(ext, db);
    if (insts.empty()) continue;
    const auto alphabet = ext.Alphabet();
    bool adjacent = true;
    for (const IterInstance& inst : insts) {
      adjacent = adjacent && alphabet.count(db[inst.seq][inst.start + 1]) != 0;
    }
    out.emplace_back(e, insts.size(), adjacent);
  }
  return out;
}

// Patterns with their supports, order aside.
std::map<Pattern, uint64_t> ToMap(const PatternSet& set) {
  std::map<Pattern, uint64_t> out;
  for (const MinedPattern& item : set.items()) out[item.pattern] = item.support;
  return out;
}

// The largest corpus the miner checks also run the brute-force miners on.
constexpr size_t kBruteForceMaxEvents = 400;

// Occurrences of `ev` in the whole database and the number of sequences
// holding it, by a scan of the raw sequences.
std::pair<uint64_t, size_t> NaiveCounts(const SequenceDatabase& db,
                                        EventId ev) {
  uint64_t total = 0;
  size_t seqs = 0;
  for (EventSpan seq : db) {
    const uint64_t before = total;
    for (EventId x : seq) total += x == ev;
    seqs += total != before;
  }
  return {total, seqs};
}

// ---------------------------------------------------------------------------
// Word-wise primitive edge cases: first/last/count with ranges that start,
// end, and straddle 64-bit word boundaries.

TEST(BitmapLayoutTest, ScanPrimitivesHandleWordBoundaries) {
  // Bits set at 0, 63, 64, 65, 127, 128, 200.
  std::vector<uint64_t> row(4, 0);
  for (size_t bit : {0, 63, 64, 65, 127, 128, 200}) {
    row[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  const uint64_t* r = row.data();
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 0, 256), 0u);
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 1, 256), 63u);
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 64, 256), 64u);
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 66, 256), 127u);
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 129, 256), 200u);
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 201, 256), kNoBit);
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 63, 63), kNoBit);  // Empty.
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 63, 64), 63u);
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 0, 63), 0u);
  // Limit masks a set bit away.
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, 1, 63), kNoBit);

  EXPECT_EQ(bitrow::LastSetBefore(r, 0, 256), 200u);
  EXPECT_EQ(bitrow::LastSetBefore(r, 0, 200), 128u);
  EXPECT_EQ(bitrow::LastSetBefore(r, 0, 128), 127u);
  EXPECT_EQ(bitrow::LastSetBefore(r, 0, 64), 63u);
  EXPECT_EQ(bitrow::LastSetBefore(r, 0, 63), 0u);
  EXPECT_EQ(bitrow::LastSetBefore(r, 1, 63), kNoBit);  // Lo masks 0.
  EXPECT_EQ(bitrow::LastSetBefore(r, 65, 65), kNoBit);  // Empty.
  EXPECT_EQ(bitrow::LastSetBefore(r, 64, 65), 64u);

  EXPECT_EQ(bitrow::CountInRange(r, 0, 256), 7u);
  EXPECT_EQ(bitrow::CountInRange(r, 63, 66), 3u);
  EXPECT_EQ(bitrow::CountInRange(r, 64, 64), 0u);
  EXPECT_EQ(bitrow::CountInRange(r, 1, 63), 0u);
  EXPECT_EQ(bitrow::CountInRange(r, 128, 256), 2u);
  EXPECT_TRUE(bitrow::AnyInRange(r, 65, 66));
  EXPECT_FALSE(bitrow::AnyInRange(r, 66, 127));
}

// Sequences of lengths 63 / 64 / 65 (and an event only in the last,
// partially-filled word): the unpadded layout's boundary masks must not
// leak bits across sequences.
TEST(BitmapLayoutTest, WordBoundarySequenceLengths) {
  for (size_t len : {63u, 64u, 65u}) {
    SequenceDatabaseBuilder builder;
    builder.mutable_dictionary()->Intern("a");
    builder.mutable_dictionary()->Intern("b");
    builder.mutable_dictionary()->Intern("z");
    // Sequence 0: a at every position except the last, which holds z —
    // the "event only in the last word" shape for len 65.
    Sequence s0;
    for (size_t k = 0; k + 1 < len; ++k) s0.Append(0);
    s0.Append(2);
    builder.AddSequence(s0);
    // Sequence 1 starts mid-word: b everywhere.
    Sequence s1;
    for (size_t k = 0; k < len; ++k) s1.Append(1);
    builder.AddSequence(s1);
    SequenceDatabase db = builder.Build();
    HybridIndex bitmap(db, kBitmapDenseCutoff);
    for (EventId ev = 0; ev < 3; ++ev) {
      const auto [total, seqs] = NaiveCounts(db, ev);
      EXPECT_EQ(bitmap.TotalCount(ev), total) << "len=" << len;
      EXPECT_EQ(bitmap.SequenceCount(ev), seqs) << "len=" << len;
      EXPECT_EQ(SingleEventInstances(bitmap, ev),
                FindAllInstances(Pattern{ev}, db))
          << "len=" << len;
    }
    // The z occurrence sits in the last word of sequence 0; sequence 1's
    // b-run must not bleed into its range queries (and vice versa).
    const size_t boundary = db.offsets()[1];
    EXPECT_TRUE(bitmap.AnyOfEventInRange(2, len - 1, boundary));
    EXPECT_FALSE(bitmap.AnyOfEventInRange(1, 0, boundary));
    EXPECT_FALSE(bitmap.AnyOfEventInRange(0, boundary, db.TotalEvents()));
    // Projection parity with the QRE matcher on a pattern rooted in each
    // sequence.
    for (EventId root : {EventId{0}, EventId{1}}) {
      const Pattern p{root};
      ProjectionWorkspace ws;
      ForwardExtensionMap fwd;
      ForwardExtensions(bitmap, p, SingleEventInstances(bitmap, root),
                        /*min_count=*/1, &ws, &fwd);
      EXPECT_EQ(Entries(fwd), OracleForward(db, p)) << "len=" << len;
    }
  }
}

// ---------------------------------------------------------------------------
// The bitrow primitives against a per-bit reference loop. Rows are 8 words
// long, so every (from, limit) shape — within one word, across several,
// starting or ending on a word boundary — is reachable.

constexpr size_t kRowWords = 8;
constexpr size_t kRowBits = kRowWords * 64;

bool BitAt(const std::vector<uint64_t>& row, size_t g) {
  return ((row[g >> 6] >> (g & 63)) & 1) != 0;
}

void ExpectScansMatchReference(const std::vector<uint64_t>& row, size_t from,
                               size_t limit) {
  size_t first = kNoBit, last = kNoBit, count = 0;
  for (size_t g = from; g < limit; ++g) {
    if (!BitAt(row, g)) continue;
    if (first == kNoBit) first = g;
    last = g;
    ++count;
  }
  const uint64_t* r = row.data();
  EXPECT_EQ(bitrow::FirstSetAtOrAfter(r, from, limit), first)
      << "FirstSetAtOrAfter [" << from << ", " << limit << ")";
  EXPECT_EQ(bitrow::LastSetBefore(r, from, limit), last)
      << "LastSetBefore [" << from << ", " << limit << ")";
  EXPECT_EQ(bitrow::AnyInRange(r, from, limit), count > 0)
      << "AnyInRange [" << from << ", " << limit << ")";
  EXPECT_EQ(bitrow::CountInRange(r, from, limit), count)
      << "CountInRange [" << from << ", " << limit << ")";
}

// Word starts/ends and their +-2 neighbors.
std::vector<size_t> BoundaryProbes() {
  std::vector<size_t> out;
  for (size_t w = 0; w <= kRowWords; ++w) {
    for (int delta : {-2, -1, 0, 1, 2}) {
      const int64_t pos = static_cast<int64_t>(w) * 64 + delta;
      if (pos >= 0 && pos <= static_cast<int64_t>(kRowBits)) {
        out.push_back(static_cast<size_t>(pos));
      }
    }
  }
  return out;
}

TEST(BitmapLayoutTest, ScanPrimitivesMatchPerBitReferenceOnBoundaryGrid) {
  std::vector<uint64_t> boundary(kRowWords, 0);
  for (size_t bit : {0, 63, 64, 65, 127, 128, 200, 255, 256, 448, 511}) {
    boundary[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  const std::vector<uint64_t> zeros(kRowWords, 0);
  const std::vector<uint64_t> ones(kRowWords, ~uint64_t{0});
  const std::vector<uint64_t>* rows[] = {&boundary, &zeros, &ones};
  const std::vector<size_t> probes = BoundaryProbes();
  for (const std::vector<uint64_t>* row : rows) {
    for (size_t from : probes) {
      for (size_t limit : probes) {
        if (from <= limit) ExpectScansMatchReference(*row, from, limit);
      }
    }
  }
}

TEST(BitmapLayoutTest, ScanPrimitivesMatchPerBitReferenceOnRandomRows) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    // Mixed densities: uniform words, sparse rows, near-full rows.
    std::vector<uint64_t> row(kRowWords);
    for (uint64_t& w : row) {
      w = rng.Next64();
      if (trial % 3 == 1) w &= rng.Next64() & rng.Next64();
      if (trial % 3 == 2) w |= rng.Next64() | rng.Next64();
    }
    for (int probe = 0; probe < 32; ++probe) {
      size_t a = rng.Uniform(kRowBits + 1);
      size_t b = rng.Uniform(kRowBits + 1);
      if (a > b) std::swap(a, b);
      ExpectScansMatchReference(row, a, b);
    }
    ExpectScansMatchReference(row, kRowBits, kRowBits);
  }
}

TEST(BitmapLayoutTest, UnionRowsMatchesNaiveOrInsideItsWordRange) {
  constexpr uint64_t kPoison = 0xDEADBEEFCAFEF00Dull;
  Rng rng(7);
  for (size_t n = 0; n <= 8; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::vector<uint64_t>> rows(n);
      std::vector<const uint64_t*> ptrs(n);
      for (size_t i = 0; i < n; ++i) {
        rows[i].resize(kRowWords);
        for (uint64_t& w : rows[i]) w = rng.Next64() & rng.Next64();
        ptrs[i] = rows[i].data();
      }
      size_t wb = rng.Uniform(kRowWords + 1);
      size_t we = rng.Uniform(kRowWords + 1);
      if (wb > we) std::swap(wb, we);
      std::vector<uint64_t> out(kRowWords, kPoison);
      bitrow::UnionRows(ptrs.data(), n, wb, we, out.data());
      for (size_t w = 0; w < kRowWords; ++w) {
        uint64_t want = kPoison;  // Outside [wb, we): untouched.
        if (w >= wb && w < we) {
          want = 0;
          for (size_t i = 0; i < n; ++i) want |= rows[i][w];
        }
        EXPECT_EQ(out[w], want)
            << "n=" << n << " wb=" << wb << " we=" << we << " w=" << w;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The adaptive chooser: dense corpora get the bitmap layout, everything
// else the hybrid split (the acceptance pins of the auto mode).

TEST(BackendChooserTest, DensePicksBitmapElsePicksHybrid) {
  // Dense: 40 sequences x 60 events over 12 distinct names.
  SequenceDatabase dense = RandomDb(1, 40, 60, 12);
  EXPECT_EQ(ChooseBackendKind(dense), BackendKind::kBitmap);
  // Sparse and tiny (mean occurrences ~1, a few hundred events total):
  // the hybrid split.
  SequenceDatabase sparse = RandomDb(2, 30, 15, 500);
  EXPECT_EQ(ChooseBackendKind(sparse), BackendKind::kHybrid);
  // Sparse and big: thousands of events over a wide alphabet — the
  // hybrid format keeps the rare tail as ID-lists instead of paying a
  // full bitmap row per event.
  SequenceDatabase wide = RandomDb(4, 300, 30, 3000);
  EXPECT_EQ(ChooseBackendKind(wide), BackendKind::kHybrid);
  // Empty databases resolve the hybrid layout too.
  EXPECT_EQ(ChooseBackendKind(SequenceDatabase()), BackendKind::kHybrid);
  // No parsed name reaches the removed csr layout.
  EXPECT_FALSE(ParseBackendChoice("csr").has_value());
  EXPECT_EQ(ParseBackendChoice("hybrid"), BackendChoice::kHybrid);
  EXPECT_EQ(ParseBackendChoice(""), BackendChoice::kAuto);
}

// ---------------------------------------------------------------------------
// Projection-level equivalence on randomized databases: every layout's
// queries agree entry-for-entry with the scalar QRE matcher.

struct EquivParams {
  uint64_t seed;
  size_t num_seqs, max_len, alphabet;
};

class BackendEquivalenceTest : public ::testing::TestWithParam<EquivParams> {
};

TEST_P(BackendEquivalenceTest, ProjectionQueriesAgree) {
  const EquivParams p = GetParam();
  SequenceDatabase db = RandomDb(p.seed, p.num_seqs, p.max_len, p.alphabet);
  HybridIndex bitmap(db, kBitmapDenseCutoff);
  HybridIndex hybrid(db);
  // The bitmap alias stores exactly the events that occur as rows.
  size_t present = 0;
  for (EventId ev = 0; ev < db.dictionary().size(); ++ev) {
    if (NaiveCounts(db, ev).first > 0) ++present;
  }
  EXPECT_EQ(bitmap.num_dense_events(), present);
  // Also a hybrid forced to keep a sparse tail on every corpus: a huge
  // cutoff pushes *all* events onto the ID-list side, so the sparse
  // scatter path is exercised even where auto-tuning would go all-dense.
  HybridIndex all_sparse(db, ~uint64_t{0});
  const std::array<const HybridIndex*, 3> layouts = {&bitmap, &hybrid,
                                                     &all_sparse};
  EXPECT_STREQ(bitmap.name(), "bitmap");
  EXPECT_STREQ(hybrid.name(), "hybrid");
  std::array<ProjectionWorkspace, 3> ws;
  for (const HybridIndex* index : layouts) {
    ASSERT_EQ(index->num_events(), db.dictionary().size());
  }
  for (EventId ev = 0; ev < db.dictionary().size(); ++ev) {
    const auto [total, seqs] = NaiveCounts(db, ev);
    const InstanceList insts = FindAllInstances(Pattern{ev}, db);
    for (const HybridIndex* index : layouts) {
      ASSERT_EQ(index->TotalCount(ev), total) << index->name();
      ASSERT_EQ(index->SequenceCount(ev), seqs) << index->name();
      ASSERT_EQ(SingleEventInstances(*index, ev), insts) << index->name();
    }
    if (insts.empty()) continue;
    // Grow a level and compare the full projection of each pattern.
    for (EventId second = 0; second < db.dictionary().size(); ++second) {
      Pattern pat = Pattern{ev}.Extend(second);
      InstanceList pat_insts = FindAllInstances(pat, db);
      if (pat_insts.empty()) continue;
      const ForwardEntries want_fwd = OracleForward(db, pat);
      const BackwardEntries want_back = OracleBackward(db, pat);
      for (size_t a = 0; a < layouts.size(); ++a) {
        const HybridIndex& index = *layouts[a];
        SCOPED_TRACE(std::string(index.name()) + " #" + std::to_string(a) +
                     " " + pat.ToString());
        ForwardExtensionMap fwd;
        ForwardExtensions(index, pat, pat_insts, /*min_count=*/1, &ws[a],
                          &fwd);
        ASSERT_EQ(Entries(fwd), want_fwd);
        ASSERT_EQ(Entries(BackwardExtensions(index, pat, pat_insts,
                                             /*min_count=*/1, &ws[a])),
                  want_back);
        // The QRE recount and the occurrence count agree with the oracles.
        ASSERT_EQ(CountInstances(index, pat), pat_insts.size());
        ASSERT_EQ(CountOccurrences(index, pat), CountOccurrences(pat, db));
      }
    }
  }
}

// The min_count contract of the projection queries: at threshold k each
// returns exactly the scalar oracle's k = 1 map minus its entries below k,
// on bitmap (cutoff 1), hybrid and an all-sparse hybrid, for k in {1, 2,
// the pattern's support, one below it, one above it, the middle of the
// walk/probe boundary, one above the smallest event count present}, over
// every length-1 and length-2 pattern of \p db and every length-3
// extension of a length-2 pattern that occurs. At k = the support both
// queries walk only the first instance and probe the rest (windows and two
// gaps at length 3); one below it, each candidate may miss one instance.
// Returns how many dropped entries belonged to an event whose total count
// is below k — events inside candidate windows that the count-bound scan
// filter skips.
size_t CheckMinCountContract(const SequenceDatabase& db) {
  HybridIndex bitmap(db, kBitmapDenseCutoff);
  HybridIndex hybrid(db);
  HybridIndex all_sparse(db, ~uint64_t{0});
  const std::array<const HybridIndex*, 3> layouts = {&bitmap, &hybrid,
                                                     &all_sparse};
  std::array<ProjectionWorkspace, 3> ws;
  const size_t num_events = db.dictionary().size();
  std::vector<uint64_t> totals(num_events);
  uint64_t smallest = ~uint64_t{0};
  std::vector<Pattern> patterns;
  for (EventId a = 0; a < num_events; ++a) {
    totals[a] = NaiveCounts(db, a).first;
    if (totals[a] > 0) smallest = std::min<uint64_t>(smallest, totals[a]);
    patterns.push_back(Pattern{a});
    for (EventId b = 0; b < num_events; ++b) patterns.push_back(Pattern{a, b});
  }
  size_t count_bound_skips = 0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Pattern pat = patterns[i];  // A copy: the loop appends.
    const InstanceList insts = FindAllInstances(pat, db);
    if (insts.empty()) continue;
    if (pat.size() == 2) {
      for (EventId c = 0; c < num_events; ++c) {
        patterns.push_back(pat.Extend(c));
      }
    }
    const ForwardEntries all_fwd = OracleForward(db, pat);
    const BackwardEntries all_back = OracleBackward(db, pat);
    // With n = support instances a query walks the first n + 1 - k and
    // probes the rest, so k = n, n + 1 - n/2 and 2 make the 2nd, a middle
    // and the last instance the first probed one; at n + 1 nothing is
    // walked. Duplicate thresholds run once.
    const uint64_t support = insts.size();
    std::vector<uint64_t> thresholds = {
        1, 2, support, std::max<uint64_t>(support - 1, 1),
        support + 1 - support / 2, support + 1, smallest + 1};
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
    for (const uint64_t k : thresholds) {
      SCOPED_TRACE(pat.ToString() + " min_count=" + std::to_string(k));
      ForwardEntries want_fwd;
      for (const auto& entry : all_fwd) {
        if (entry.second.size() >= k) {
          want_fwd.push_back(entry);
        } else if (totals[entry.first] < k) {
          ++count_bound_skips;
        }
      }
      BackwardEntries want_back;
      for (const auto& entry : all_back) {
        if (std::get<1>(entry) >= k) {
          want_back.push_back(entry);
        } else if (totals[std::get<0>(entry)] < k) {
          ++count_bound_skips;
        }
      }
      for (size_t b = 0; b < layouts.size(); ++b) {
        ForwardExtensionMap got;
        ForwardExtensions(*layouts[b], pat, insts, k, &ws[b], &got);
        EXPECT_EQ(want_fwd, Entries(got)) << layouts[b]->name() << " #" << b;
        EXPECT_EQ(want_back, Entries(BackwardExtensions(*layouts[b], pat,
                                                        insts, k, &ws[b])))
            << layouts[b]->name() << " #" << b;
      }
    }
  }
  return count_bound_skips;
}

TEST_P(BackendEquivalenceTest, MinCountKeepsExactlyTheEntriesReachingIt) {
  const EquivParams p = GetParam();
  CheckMinCountContract(RandomDb(p.seed, p.num_seqs, p.max_len, p.alphabet));
}

// A rare event (x, two occurrences) inside candidate windows: the
// count-bound filter must skip it without disturbing the rest of the
// walk, and an extension whose support equals its event's total count
// (<a>++<b>, 3) must survive at exactly that threshold.
TEST(MinCountContractTest, CountBoundSkipsRareEventsInsideWindows) {
  SequenceDatabaseBuilder builder;
  for (const char* trace : {"a x b", "a b", "a b c", "a c", "c x a"}) {
    builder.AddTraceFromString(trace);
  }
  const SequenceDatabase db = builder.Build();
  EXPECT_GT(CheckMinCountContract(db), 0u);

  const EventDictionary& dict = db.dictionary();
  const EventId a = dict.Lookup("a"), b = dict.Lookup("b"),
                c = dict.Lookup("c"), x = dict.Lookup("x");
  const HybridIndex bitmap(db, kBitmapDenseCutoff);
  const HybridIndex hybrid(db);
  ProjectionWorkspace ws;
  const Pattern pa{a};
  const InstanceList insts = FindAllInstances(pa, db);
  ASSERT_EQ(NaiveCounts(db, x).first, 2u);
  ASSERT_EQ(NaiveCounts(db, c).first, 3u);
  for (const HybridIndex* layout : {&bitmap, &hybrid}) {
    const HybridIndex& backend = *layout;
    // <a>++<x> has 1 instance, <a>++<b> 3, <a>++<c> 2: at 3 only b stays.
    ForwardExtensionMap fwd;
    ForwardExtensions(backend, pa, insts, 3, &ws, &fwd);
    ASSERT_EQ(fwd.size(), 1u) << backend.name();
    EXPECT_EQ(fwd.begin()->first, b);
    EXPECT_EQ(fwd.begin()->second.size(), 3u);
    // Backward of <a>: <x, a> and <c, a> once each (the c-x-a trace), so
    // at 2 neither survives.
    EXPECT_TRUE(BackwardExtensions(backend, pa, insts, 2, &ws).empty())
        << backend.name();
    // <c> has 3 occurrences; <a>++<c> ends at 2 of them.
    ForwardExtensions(backend, pa, insts, 2, &ws, &fwd);
    ASSERT_EQ(fwd.size(), 2u) << backend.name();
    EXPECT_EQ(fwd.entries()[1].first, c);
    EXPECT_EQ(fwd.entries()[1].second.size(), 2u);
  }
}

// The backward query's probe phase on hand-made corpora, where each
// later instance decides one candidate differently from the first
// instance's walk. `Backward` runs the query at min_count k on bitmap and
// an all-sparse hybrid, and checks both against the scalar oracle's
// entries that reach k (the matcher walks every instance).
class BackwardProbeTest : public ::testing::Test {
 protected:
  void Build(std::initializer_list<const char*> traces) {
    SequenceDatabaseBuilder builder;
    for (const char* trace : traces) builder.AddTraceFromString(trace);
    db_ = builder.Build();
    bitmap_.emplace(db_, kBitmapDenseCutoff);
    all_sparse_.emplace(db_, ~uint64_t{0});
    CheckMinCountContract(db_);  // Every pattern of length 1 to 3.
  }
  EventId Id(const char* name) const { return db_.dictionary().Lookup(name); }
  Pattern Pat(std::initializer_list<const char*> names) const {
    Pattern out;
    for (const char* name : names) out = out.Extend(Id(name));
    return out;
  }
  BackwardEntries Backward(const Pattern& pat, uint64_t k) {
    const InstanceList insts = FindAllInstances(pat, db_);
    ProjectionWorkspace ws;
    BackwardEntries want;
    for (const auto& entry : OracleBackward(db_, pat)) {
      if (std::get<1>(entry) >= k) want.push_back(entry);
    }
    for (const HybridIndex* layout : {&*bitmap_, &*all_sparse_}) {
      const HybridIndex& backend = *layout;
      EXPECT_EQ(want, Entries(BackwardExtensions(backend, pat, insts, k, &ws)))
          << backend.name() << " " << pat.ToString() << " k=" << k;
    }
    return want;
  }

  SequenceDatabase db_;
  std::optional<HybridIndex> bitmap_, all_sparse_;
};

// x sits right before the first instance of <a, b> but one event earlier
// in the second, so the probe of instance 2 must clear all_adjacent.
TEST_F(BackwardProbeTest, LaterInstanceClearsAdjacency) {
  Build({"x a b", "x y a c b"});
  const EventId x = Id("x"), y = Id("y");
  EXPECT_EQ(Backward(Pat({"a", "b"}), 2),
            (BackwardEntries{{x, 2, false}}));
  EXPECT_EQ(Backward(Pat({"a", "b"}), 1),
            (BackwardEntries{{x, 2, false}, {y, 1, true}}));
}

// z is in the first instance's backward window but inside a gap of the
// second, so the second's gap probe drops it: at the pattern's support
// nothing survives (and the query stops there); at 2 the walk covers
// instances 1 and 2, and the probe of instance 3 brings z to 2.
TEST_F(BackwardProbeTest, GapProbeDropsCandidate) {
  Build({"z a b", "z a z b", "z a b"});
  const EventId z = Id("z");
  const Pattern ab = Pat({"a", "b"});
  ASSERT_EQ(FindAllInstances(ab, db_).size(), 3u);
  EXPECT_TRUE(Backward(ab, 3).empty());
  EXPECT_EQ(Backward(ab, 2), (BackwardEntries{{z, 2, true}}));
  // Length 3, two gaps: z inside the second gap of instance 2 only.
  Build({"z a b c", "z a b z c", "z a b c"});
  const Pattern abc = Pat({"a", "b", "c"});
  ASSERT_EQ(FindAllInstances(abc, db_).size(), 3u);
  EXPECT_TRUE(Backward(abc, 3).empty());
  EXPECT_EQ(Backward(abc, 2), (BackwardEntries{{Id("z"), 2, true}}));
}

// The instances' alphabet stop events differ (a before the first, b
// before the second): neither alphabet candidate reaches 2, while x, in
// both windows, does.
TEST_F(BackwardProbeTest, DifferentStopEvents) {
  Build({"a x a b", "b x a b"});
  const EventId a = Id("a"), b = Id("b"), x = Id("x");
  const Pattern ab = Pat({"a", "b"});
  ASSERT_EQ(FindAllInstances(ab, db_).size(), 2u);
  EXPECT_EQ(Backward(ab, 2), (BackwardEntries{{x, 2, true}}));
  EXPECT_EQ(Backward(ab, 1),
            (BackwardEntries{{a, 1, false}, {x, 2, true}, {b, 1, false}}));
  // The same stop event in both: it is absorbed, non-adjacent once.
  Build({"a x a b", "a a b"});
  EXPECT_EQ(Backward(Pat({"a", "b"}), 2),
            (BackwardEntries{{Id("a"), 2, false}}));
}

// The forward query's probe phase. `Forward` runs the query at min_count
// k on bitmap and an all-sparse hybrid, checks both against the scalar
// oracle's entries that reach k, and returns each surviving event's
// instance count.
class ForwardProbeTest : public BackwardProbeTest {
 protected:
  std::vector<std::pair<EventId, size_t>> Forward(const Pattern& pat,
                                                  uint64_t k) {
    const InstanceList insts = FindAllInstances(pat, db_);
    ProjectionWorkspace ws;
    ForwardEntries want;
    for (const auto& entry : OracleForward(db_, pat)) {
      if (entry.second.size() >= k) want.push_back(entry);
    }
    for (const HybridIndex* layout : {&*bitmap_, &*all_sparse_}) {
      ForwardExtensionMap got;
      ForwardExtensions(*layout, pat, insts, k, &ws, &got);
      EXPECT_EQ(want, Entries(got))
          << layout->name() << " " << pat.ToString() << " k=" << k;
    }
    std::vector<std::pair<EventId, size_t>> sizes;
    for (const auto& [ev, list] : want) sizes.emplace_back(ev, list.size());
    return sizes;
  }
};

// Five instances of <a, b>; at k = 4 the first two are walked (x ends in
// the window and a at the stop event in both) and the last three probed,
// since each of their windows holds at least as many events as are
// alive. The f events occur once, so the count bound keeps them out of
// the walk. Instance 3 has a, its stop event, after f1 f2 and x beyond
// it: a matches at the stop and x misses. Instance 4 has no stop event
// and x inside the window. Instance 5 has x in its window and its gap,
// so the gap probe drops x, and a matches at the stop again.
TEST_F(ForwardProbeTest, StopWindowAndGapOutcomes) {
  using Sizes = std::vector<std::pair<EventId, size_t>>;
  Build({"a b x a", "a b x a", "a b f1 f2 a x", "a b f3 x f4",
         "a x b x f5 a"});
  const Pattern ab = Pat({"a", "b"});
  ASSERT_EQ(FindAllInstances(ab, db_).size(), 5u);
  EXPECT_EQ(Forward(ab, 4), (Sizes{{Id("a"), 4}}));
  EXPECT_EQ(Forward(ab, 3), (Sizes{{Id("a"), 4}, {Id("x"), 3}}));
  EXPECT_EQ(Forward(ab, 5), Sizes{});
  EXPECT_EQ(Forward(ab, 6), Sizes{});
  // The same outcomes with windows shorter than the alive list: instances
  // past the walk walk their window too, which is exact for the alive
  // events.
  Build({"a b x a", "a b x a", "a b a x", "a b x", "a x b x a"});
  ASSERT_EQ(FindAllInstances(ab, db_).size(), 5u);
  EXPECT_EQ(Forward(ab, 4), (Sizes{{Id("a"), 4}}));
  EXPECT_EQ(Forward(ab, 3), (Sizes{{Id("a"), 4}, {Id("x"), 3}}));
}

// Full / closed / generator miners: byte-identical emission across
// layouts x thresholds x thread counts, through one Engine session whose
// tasks pick the layout per arm. The reference is the bitmap layout on
// one thread; on the small corpora its full and closed sets (patterns and
// supports) must also equal the brute-force miners', which share no code
// with the index.
TEST_P(BackendEquivalenceTest, MinersAreByteIdenticalAcrossBackends) {
  const EquivParams p = GetParam();
  const SequenceDatabase db =
      RandomDb(p.seed, p.num_seqs, p.max_len, p.alphabet);
  const Engine engine{SequenceDatabase(db)};
  const auto mine = [&engine](auto task, BackendChoice backend,
                              size_t threads) {
    task.options.backend = backend;
    task.options.num_threads = threads;
    Result<PatternSet> mined = engine.CollectPatterns(task);
    EXPECT_TRUE(mined.ok()) << mined.status().ToString();
    return mined.ok() ? mined.TakeValueOrDie() : PatternSet{};
  };
  // Every layout and thread count against the one-thread bitmap run.
  const auto expect_all_match = [&](auto task, const PatternSet& reference,
                                    const std::string& what) {
    const std::string want = Render(reference, db.dictionary());
    for (size_t threads : {1u, 4u}) {
      for (BackendChoice backend :
           {BackendChoice::kBitmap, BackendChoice::kHybrid}) {
        if (threads == 1 && backend == BackendChoice::kBitmap) continue;
        ASSERT_EQ(want, Render(mine(task, backend, threads), db.dictionary()))
            << what << " " << (backend == BackendChoice::kBitmap ? "bitmap"
                                                                 : "hybrid")
            << " threads=" << threads;
      }
    }
  };
  const bool small = db.TotalEvents() <= kBruteForceMaxEvents;
  // min_support 1 is omitted: the *full* pattern tree at support 1 grows
  // combinatorially on the larger corpora (equally on both layouts) —
  // the low-threshold regime is covered by the smaller projection test.
  for (uint64_t min_sup : {2u, 4u}) {
    const std::string at = " min_sup=" + std::to_string(min_sup);
    FullPatternsTask full;
    full.options.min_support = min_sup;
    const PatternSet full_ref = mine(full, BackendChoice::kBitmap, 1);
    if (small) {
      EXPECT_EQ(ToMap(full_ref),
                ToMap(BruteForceFrequentIterative(db, min_sup)))
          << "full" << at;
    }
    expect_all_match(full, full_ref, "full" + at);

    ClosedTask closed;
    closed.options.min_support = min_sup;
    expect_all_match(closed, mine(closed, BackendChoice::kBitmap, 1),
                     "closed" + at);
    if (small) {
      // The heuristic P2 and P3 prunes may drop closed patterns
      // (closed_miner.h), so the definition-level check runs without them.
      ClosedTask sound = closed;
      sound.options.aggressive_prefix_prune = false;
      sound.options.infix_prune = false;
      EXPECT_EQ(ToMap(mine(sound, BackendChoice::kBitmap, 1)),
                ToMap(BruteForceClosedIterative(db, min_sup)))
          << "closed" << at;
    }

    GeneratorsTask gens;
    gens.options.min_support = min_sup;
    expect_all_match(gens, mine(gens, BackendChoice::kBitmap, 1),
                     "generators" + at);
  }
}

// Rules, forward and backward: the index answers the i-support counts and
// the premise maximality tests, so every layout at every thread count must
// mine the same rules as the bitmap layout on one thread, whose i-supports
// must match the scalar occurrence count.
TEST_P(BackendEquivalenceTest, RulesAreByteIdenticalAcrossBackends) {
  const EquivParams p = GetParam();
  SequenceDatabase db = RandomDb(p.seed, p.num_seqs, p.max_len, p.alphabet);
  const EventDictionary& dict = db.dictionary();
  const HybridIndex bitmap(db, kBitmapDenseCutoff);
  const HybridIndex hybrid(db);
  for (bool backward : {false, true}) {
    const auto mine = [backward](const HybridIndex& index,
                                 const RuleMinerOptions& options) {
      return backward ? MineBackwardRules(index, options)
                      : MineRecurrentRules(index, options);
    };
    for (bool non_redundant : {true, false}) {
      const std::string at = std::string(backward ? "backward" : "forward") +
                             (non_redundant ? " nr" : " full");
      RuleMinerOptions options;
      options.min_s_support = 2;
      options.min_confidence = 0.6;
      options.non_redundant = non_redundant;
      options.num_threads = 1;
      // Length caps keep the premise/consequent enumeration polynomial on
      // the dense tiny-alphabet corpora (the blowup is backend-independent).
      // Backward premises skip maximality pruning, so at length 3 the
      // largest corpus yields millions of candidates; length 2 keeps it
      // in the tens of thousands.
      options.max_premise_length = backward ? 2 : 3;
      options.max_consequent_length = 3;
      const RuleSet reference = mine(bitmap, options);
      for (const Rule& r : reference.rules()) {
        const Pattern witness = backward ? r.consequent.Concat(r.premise)
                                         : r.Concatenation();
        ASSERT_EQ(r.i_support, CountOccurrences(witness, db))
            << at << " " << r.ToString(dict);
      }
      for (const HybridIndex* index : {&bitmap, &hybrid}) {
        for (size_t threads : {1u, 4u}) {
          if (index == &bitmap && threads == 1) continue;  // The reference.
          options.num_threads = threads;
          const RuleSet got = mine(*index, options);
          ASSERT_EQ(got.size(), reference.size())
              << at << " " << index->name() << " t" << threads;
          for (size_t i = 0; i < reference.size(); ++i) {
            ASSERT_TRUE(got[i] == reference[i])
                << at << " " << index->name() << " t" << threads << ": "
                << got[i].ToString(dict) << " vs "
                << reference[i].ToString(dict);
          }
        }
      }
    }
  }
}

// Sharded execution: forcing either layout on every shard (and mixing,
// via auto) reproduces the single-pass output byte for byte.
TEST_P(BackendEquivalenceTest, ShardedMiningAgreesAcrossBackends) {
  const EquivParams p = GetParam();
  SequenceDatabase db = RandomDb(p.seed, p.num_seqs, p.max_len, p.alphabet);
  const std::string stem = "backend_equiv_" + std::to_string(p.seed);
  const std::string smdbset = TempPath(stem + ".smdbset");
  ShardWriterOptions shard_options;
  shard_options.shard_bytes = 1400;
  ASSERT_TRUE(WriteShardedDatabase(db, smdbset, shard_options).ok());
  for (size_t threads : {1u, 4u}) {
    FullPatternsTask task;
    // High enough that the proportional per-shard thresholds stay above
    // the support-1 blowup regime on the larger random corpora (the
    // explosion is backend-independent; PR 4 chose its corpora the same
    // way).
    task.options.min_support = 6;
    task.options.num_threads = threads;

    Result<Engine> plain = Engine::Create(SequenceDatabase(db));
    ASSERT_TRUE(plain.ok());
    FullPatternsTask single = task;
    single.options.backend = BackendChoice::kBitmap;
    single.options.num_threads = 1;
    Result<PatternSet> reference = plain->CollectPatterns(single);
    ASSERT_TRUE(reference.ok());

    for (BackendChoice choice : {BackendChoice::kAuto, BackendChoice::kBitmap,
                                 BackendChoice::kHybrid}) {
      task.options.backend = choice;
      Result<Engine> sharded = Engine::FromShardSet(smdbset);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      CollectingPatternSink sink;
      Result<RunReport> run = sharded->MineSharded(task, sink);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(Render(*reference, db.dictionary()),
                Render(sink.set(), sharded->database().dictionary()))
          << "threads=" << threads;
    }
  }
}

// Sharded auto: a sharded session answers regular (non-sharded) tasks
// over its merged arena with the backend auto resolves there, and the
// emission is byte-identical to eagerly merging the shards into one arena
// and mining it on the bitmap layout with one thread, across every miner
// family and thread count.
TEST_P(BackendEquivalenceTest, ShardedAutoMatchesEagerBitmap) {
  const EquivParams p = GetParam();
  SequenceDatabase db = RandomDb(p.seed, p.num_seqs, p.max_len, p.alphabet);
  const std::string smdbset =
      TempPath("sharded_auto_" + std::to_string(p.seed) + ".smdbset");
  ShardWriterOptions shard_options;
  // Tiny shards: even the smallest corpus in the matrix splits, so the
  // merge always has real seq-base offsets and remap tables.
  shard_options.shard_bytes = 200;
  ASSERT_TRUE(WriteShardedDatabase(db, smdbset, shard_options).ok());

  Result<Engine> eager = Engine::Create(SequenceDatabase(db));
  ASSERT_TRUE(eager.ok());
  Result<Engine> sharded = Engine::FromShardSet(smdbset);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_GT(sharded->shard_set().num_shards(), 1u);
  // Session metadata flows from the shard manifest, not the merged arena.
  ASSERT_EQ(sharded->num_sequences(), db.size());
  ASSERT_EQ(sharded->total_events(), db.TotalEvents());
  ASSERT_EQ(sharded->dictionary().size(), db.dictionary().size());
  // Auto resolves over the merged arena, as on the equivalent single file.
  const std::string auto_name =
      BackendKindName(ChooseBackendKind(sharded->database()));

  for (size_t threads : {1u, 4u}) {
    {
      FullPatternsTask task;
      task.options.min_support = 3;
      task.options.num_threads = 1;
      task.options.backend = BackendChoice::kBitmap;
      CollectingPatternSink want;
      ASSERT_TRUE(eager->Mine(task, want).ok());
      task.options.num_threads = threads;
      task.options.backend = BackendChoice::kAuto;
      CollectingPatternSink got;
      Result<RunReport> run = sharded->Mine(task, got);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->backend, auto_name);
      EXPECT_EQ(Render(want.set(), db.dictionary()),
                Render(got.set(), sharded->dictionary()))
          << "full threads=" << threads;
    }
    {
      ClosedTask task;
      task.options.min_support = 3;
      task.options.num_threads = 1;
      task.options.backend = BackendChoice::kBitmap;
      CollectingPatternSink want;
      ASSERT_TRUE(eager->Mine(task, want).ok());
      task.options.num_threads = threads;
      task.options.backend = BackendChoice::kAuto;
      CollectingPatternSink got;
      Result<RunReport> run = sharded->Mine(task, got);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->backend, auto_name);
      EXPECT_EQ(Render(want.set(), db.dictionary()),
                Render(got.set(), sharded->dictionary()))
          << "closed threads=" << threads;
    }
    {
      GeneratorsTask task;
      task.options.min_support = 3;
      task.options.num_threads = 1;
      task.options.backend = BackendChoice::kBitmap;
      CollectingPatternSink want;
      ASSERT_TRUE(eager->Mine(task, want).ok());
      task.options.num_threads = threads;
      task.options.backend = BackendChoice::kAuto;
      CollectingPatternSink got;
      Result<RunReport> run = sharded->Mine(task, got);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->backend, auto_name);
      EXPECT_EQ(Render(want.set(), db.dictionary()),
                Render(got.set(), sharded->dictionary()))
          << "generators threads=" << threads;
    }
  }

  // An explicit backend on the sharded session stamps the report with
  // that backend and agrees byte for byte.
  FullPatternsTask task;
  task.options.min_support = 3;
  task.options.num_threads = 1;
  task.options.backend = BackendChoice::kBitmap;
  CollectingPatternSink want;
  ASSERT_TRUE(eager->Mine(task, want).ok());
  task.options.backend = BackendChoice::kHybrid;
  CollectingPatternSink via_hybrid;
  Result<RunReport> run = sharded->Mine(task, via_hybrid);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->backend, "hybrid");
  EXPECT_EQ(Render(want.set(), db.dictionary()),
            Render(via_hybrid.set(), sharded->dictionary()));
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, BackendEquivalenceTest,
    ::testing::Values(EquivParams{3, 12, 8, 4}, EquivParams{17, 20, 14, 6},
                      EquivParams{29, 30, 20, 10}, EquivParams{71, 8, 64, 3},
                      EquivParams{97, 25, 40, 24}));

// Degraded mode: with a quarantined shard, the session's merged arena
// spans exactly the healthy shards — its output equals eagerly merging the
// surviving subset, and auto resolves the same backend there.
TEST(ShardedEngineTest, QuarantinedShardsMatchHealthySubset) {
  SequenceDatabase db = RandomDb(83, 40, 12, 6);
  const std::string smdbset = TempPath("sharded_quarantine.smdbset");
  ShardWriterOptions options;
  options.shard_bytes = 400;
  ASSERT_TRUE(WriteShardedDatabase(db, smdbset, options).ok());
  {
    Result<ShardedDatabase> probe = ShardedDatabase::Open(smdbset);
    ASSERT_TRUE(probe.ok());
    ASSERT_GT(probe->num_shards(), 2u);
    // Corrupt shard 1 beyond recognition.
    std::ofstream f(probe->shard_path(1), std::ios::binary | std::ios::trunc);
    f << "not an smdb";
  }

  SetOpenOptions open_options;
  open_options.policy = ShardFailurePolicy::kQuarantine;
  Result<Engine> sharded = Engine::FromShardSet(smdbset, open_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded->shard_set().open_report().quarantined.size(), 1u);

  // The eager reference mines the healthy subset merged into one arena.
  Result<Engine> healthy = Engine::Create(sharded->shard_set().Merge());
  ASSERT_TRUE(healthy.ok());

  for (size_t threads : {1u, 4u}) {
    FullPatternsTask task;
    task.options.min_support = 2;
    task.options.num_threads = 1;
    task.options.backend = BackendChoice::kBitmap;
    CollectingPatternSink want;
    ASSERT_TRUE(healthy->Mine(task, want).ok());
    task.options.num_threads = threads;
    task.options.backend = BackendChoice::kAuto;
    CollectingPatternSink healthy_auto;
    Result<RunReport> healthy_run = healthy->Mine(task, healthy_auto);
    ASSERT_TRUE(healthy_run.ok()) << healthy_run.status().ToString();
    CollectingPatternSink got;
    Result<RunReport> run = sharded->Mine(task, got);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->backend, healthy_run->backend);
    EXPECT_EQ(Render(want.set(), healthy->dictionary()),
              Render(got.set(), sharded->dictionary()))
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Engine-level behavior: per-task override, report stamping, and the
// one-build-per-representation cache.

TEST(BackendEngineTest, SessionCachesEachRepresentationOnce) {
  SequenceDatabase db = RandomDb(5, 25, 30, 8);
  Engine engine{SequenceDatabase(db)};
  EXPECT_EQ(engine.index_builds(), 0u);

  FullPatternsTask bitmap_task;
  bitmap_task.options.min_support = 2;
  bitmap_task.options.backend = BackendChoice::kBitmap;
  CollectingPatternSink sink1;
  Result<RunReport> first = engine.Mine(bitmap_task, sink1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->backend, "bitmap");
  EXPECT_GT(first->index_build_seconds, 0.0);
  EXPECT_EQ(engine.index_builds(), 1u);

  CollectingPatternSink sink2;
  Result<RunReport> second = engine.Mine(bitmap_task, sink2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->index_build_seconds, 0.0);  // Cached.
  EXPECT_EQ(engine.index_builds(), 1u);

  FullPatternsTask hybrid_task = bitmap_task;
  hybrid_task.options.backend = BackendChoice::kHybrid;
  CollectingPatternSink sink3;
  Result<RunReport> third = engine.Mine(hybrid_task, sink3);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->backend, "hybrid");
  EXPECT_EQ(engine.index_builds(), 2u);  // Second layout.
  CollectingPatternSink sink4;
  Result<RunReport> fourth = engine.Mine(hybrid_task, sink4);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->index_build_seconds, 0.0);  // Cached.
  EXPECT_EQ(engine.index_builds(), 2u);

  EXPECT_EQ(Render(sink1.set(), db.dictionary()),
            Render(sink3.set(), db.dictionary()));
}

TEST(BackendEngineTest, RulesReportRecordsTheBackend) {
  SequenceDatabase db = RandomDb(13, 20, 25, 6);
  Engine engine{std::move(db)};
  RulesTask task;
  task.options.min_s_support = 2;
  task.options.min_confidence = 0.6;
  task.options.backend = BackendChoice::kBitmap;
  CollectingRuleSink sink;
  Result<RunReport> run = engine.Mine(task, sink);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->backend, "bitmap");
  // Backward rules run on the same session index: the layout is named and
  // the cached build is reused.
  task.backward = true;
  CollectingRuleSink backward_sink;
  run = engine.Mine(task, backward_sink);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->backend, "bitmap");
  EXPECT_EQ(run->index_build_seconds, 0.0);
  EXPECT_EQ(engine.index_builds(), 1u);
}

// "bitmap" is the hybrid layout at kBitmapDenseCutoff, but it stays a
// representation of its own: its own name in reports, its own cache slot.
TEST(BackendEngineTest, BitmapAliasKeepsItsNameAndCacheSlot) {
  // The chooser fixture's dense corpus: auto still resolves "bitmap".
  SequenceDatabase db = RandomDb(1, 40, 60, 12);
  Engine engine{SequenceDatabase(db)};
  FullPatternsTask task;
  task.options.min_support = 8;
  task.options.backend = BackendChoice::kBitmap;
  CollectingPatternSink bitmap_sink;
  Result<RunReport> bitmap_run = engine.Mine(task, bitmap_sink);
  ASSERT_TRUE(bitmap_run.ok());
  EXPECT_EQ(bitmap_run->backend, "bitmap");

  task.options.backend = BackendChoice::kHybrid;
  CollectingPatternSink hybrid_sink;
  Result<RunReport> hybrid_run = engine.Mine(task, hybrid_sink);
  ASSERT_TRUE(hybrid_run.ok());
  EXPECT_EQ(hybrid_run->backend, "hybrid");
  EXPECT_EQ(engine.index_builds(), 2u);

  task.options.backend = BackendChoice::kAuto;
  CollectingPatternSink auto_sink;
  Result<RunReport> auto_run = engine.Mine(task, auto_sink);
  ASSERT_TRUE(auto_run.ok());
  EXPECT_EQ(auto_run->backend, "bitmap");
  EXPECT_EQ(auto_run->index_build_seconds, 0.0);  // The bitmap slot.
  EXPECT_EQ(engine.index_builds(), 2u);
  EXPECT_STREQ(engine.backend().name(), "bitmap");

  EXPECT_EQ(Render(bitmap_sink.set(), db.dictionary()),
            Render(hybrid_sink.set(), db.dictionary()));
  EXPECT_EQ(Render(bitmap_sink.set(), db.dictionary()),
            Render(auto_sink.set(), db.dictionary()));
}

// The explicit-bitmap cap: a cutoff-1 table is alphabet x arena bits, so a
// wide alphabet over a modest arena must be refused before anything is
// allocated. 100 sequences of 1000 single-occurrence events, bracketed by
// a and b: ~100k events x ~1566 words = ~1.25 GB > the 1 GB cap.
TEST(BackendEngineTest, ExplicitBitmapBeyondTableCapFailsBeforeBuilding) {
  SequenceDatabaseBuilder builder;
  EventDictionary* dict = builder.mutable_dictionary();
  const EventId a = dict->Intern("a");
  const EventId b = dict->Intern("b");
  for (size_t s = 0; s < 100; ++s) {
    Sequence seq;
    seq.Append(a);
    for (size_t k = 0; k < 1000; ++k) {
      seq.Append(dict->Intern("u" + std::to_string(s * 1000 + k)));
    }
    seq.Append(b);
    builder.AddSequence(seq);
  }
  SequenceDatabase db = builder.Build();
  const Status cap = CheckBitmapIndexable(db);
  ASSERT_FALSE(cap.ok());
  EXPECT_EQ(cap.code(), StatusCode::kOutOfRange);
  EXPECT_NE(cap.message().find("use the hybrid backend"), std::string::npos)
      << cap.message();

  Result<Engine> engine = Engine::Create(SequenceDatabase(db));
  ASSERT_TRUE(engine.ok());
  FullPatternsTask task;
  task.options.min_support = 50;
  task.options.backend = BackendChoice::kBitmap;
  CollectingPatternSink refused;
  Result<RunReport> run = engine->Mine(task, refused);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(run.status().message(), cap.message());
  EXPECT_EQ(engine->index_builds(), 0u);

  // Auto picks a representation within bounds and mines normally.
  task.options.backend = BackendChoice::kAuto;
  CollectingPatternSink via_auto;
  run = engine->Mine(task, via_auto);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_NE(run->backend, "bitmap");
  EXPECT_EQ(via_auto.set().size(), 3u);  // <a>, <b>, <a, b>.
}

}  // namespace
}  // namespace specmine
