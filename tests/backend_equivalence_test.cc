// The backend-equivalence property: every miner produces byte-identical
// output — patterns, supports, rules, emission order — on the CSR, the
// bitmap (a HybridIndex at kBitmapDenseCutoff), and the hybrid counting
// backends, across randomized databases, thresholds, thread counts, and
// the plain / sharded execution paths —
// and a sharded session's auto backend, resolved over its merged arena,
// reproduces the eager-merge output exactly, including in
// quarantined-shard degraded mode. Plus the bitrow word primitives
// against a per-bit reference (word-boundary grids, degenerate and random
// rows, the union's untouched-words contract), the word-mask edge cases
// (sequence lengths straddling the 64-bit word boundary), the adaptive
// chooser's dense/sparse/hybrid verdicts, and the explicit-bitmap table
// cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "src/itermine/hybrid_index.h"
#include "src/itermine/projection.h"
#include "src/itermine/qre_verifier.h"
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
    CountingBackend bb(bitmap);
    PositionIndex csr(db);
    for (EventId ev = 0; ev < 3; ++ev) {
      EXPECT_EQ(bb.TotalCount(ev), csr.TotalCount(ev)) << "len=" << len;
      EXPECT_EQ(bb.SequenceCount(ev), csr.SequenceCount(ev))
          << "len=" << len;
      EXPECT_EQ(SingleEventInstances(bb, ev), SingleEventInstances(csr, ev))
          << "len=" << len;
    }
    // The z occurrence sits in the last word of sequence 0; sequence 1's
    // b-run must not bleed into its range queries (and vice versa).
    EXPECT_TRUE(bb.AnyInRange(2, 0, static_cast<Pos>(len - 1),
                              static_cast<Pos>(len - 1)));
    EXPECT_FALSE(bb.AnyInRange(1, 0, 0, static_cast<Pos>(len - 1)));
    EXPECT_FALSE(bb.AnyInRange(0, 1, 0, static_cast<Pos>(len - 1)));
    // Projection parity on a pattern rooted in each sequence.
    for (EventId root : {EventId{0}, EventId{1}}) {
      InstanceList insts = SingleEventInstances(csr, root);
      Pattern p{root};
      ForwardExtensionMap csr_fwd = ForwardExtensions(csr, p, insts);
      ProjectionWorkspace ws;
      ForwardExtensionMap bitmap_fwd;
      ForwardExtensions(bb, p, insts, /*min_count=*/1, &ws, &bitmap_fwd);
      ASSERT_EQ(csr_fwd.size(), bitmap_fwd.size()) << "len=" << len;
      auto it = bitmap_fwd.begin();
      for (const auto& [ev, il] : csr_fwd) {
        EXPECT_EQ(ev, it->first);
        EXPECT_EQ(il, it->second);
        ++it;
      }
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
// The adaptive chooser: dense corpora go vertical, sparse corpora stay on
// the CSR index (the acceptance pins of the auto mode).

TEST(BackendChooserTest, DensePicksBitmapSparsePicksCsr) {
  // Dense: 40 sequences x 60 events over 12 distinct names.
  SequenceDatabase dense = RandomDb(1, 40, 60, 12);
  EXPECT_EQ(ChooseBackendKind(dense), BackendKind::kBitmap);
  // Sparse AND tiny: the hybrid split can't amortize its arena, so the
  // CSR index wins (mean occurrences ~1, a few hundred events total).
  SequenceDatabase sparse = RandomDb(2, 30, 15, 500);
  EXPECT_EQ(ChooseBackendKind(sparse), BackendKind::kCsr);
  // Sparse but big: thousands of events over a wide alphabet — the
  // hybrid format keeps the rare tail as ID-lists instead of paying a
  // full bitmap row per event.
  SequenceDatabase wide = RandomDb(4, 300, 30, 3000);
  EXPECT_EQ(ChooseBackendKind(wide), BackendKind::kHybrid);
  // Empty databases default to CSR.
  EXPECT_EQ(ChooseBackendKind(SequenceDatabase()), BackendKind::kCsr);
}

// ---------------------------------------------------------------------------
// Projection-level equivalence on randomized databases: the dispatching
// overloads agree entry-for-entry between backends.

struct EquivParams {
  uint64_t seed;
  size_t num_seqs, max_len, alphabet;
};

class BackendEquivalenceTest : public ::testing::TestWithParam<EquivParams> {
};

TEST_P(BackendEquivalenceTest, ProjectionQueriesAgree) {
  const EquivParams p = GetParam();
  SequenceDatabase db = RandomDb(p.seed, p.num_seqs, p.max_len, p.alphabet);
  PositionIndex csr(db);
  HybridIndex bitmap(db, kBitmapDenseCutoff);
  HybridIndex hybrid(db);
  // The bitmap alias stores exactly the events that occur as rows.
  size_t present = 0;
  for (EventId ev = 0; ev < db.dictionary().size(); ++ev) {
    if (csr.TotalCount(ev) > 0) ++present;
  }
  EXPECT_EQ(bitmap.num_dense_events(), present);
  // Also a hybrid forced to keep a sparse tail on every corpus: a huge
  // cutoff pushes *all* events onto the ID-list side, so the sparse
  // scatter path is exercised even where auto-tuning would go all-dense.
  HybridIndex all_sparse(db, ~uint64_t{0});
  CountingBackend cb(csr);
  std::array<CountingBackend, 3> alts = {CountingBackend(bitmap),
                                         CountingBackend(hybrid),
                                         CountingBackend(all_sparse)};
  EXPECT_STREQ(alts[0].name(), "bitmap");
  EXPECT_STREQ(alts[1].name(), "hybrid");
  std::array<ProjectionWorkspace, 3> alt_ws;
  ProjectionWorkspace csr_ws;
  for (const CountingBackend& alt : alts) {
    ASSERT_EQ(cb.num_events(), alt.num_events());
  }
  for (EventId ev = 0; ev < db.dictionary().size(); ++ev) {
    InstanceList insts = SingleEventInstances(cb, ev);
    for (const CountingBackend& alt : alts) {
      ASSERT_EQ(cb.TotalCount(ev), alt.TotalCount(ev)) << alt.name();
      ASSERT_EQ(cb.SequenceCount(ev), alt.SequenceCount(ev)) << alt.name();
      ASSERT_EQ(insts, SingleEventInstances(alt, ev)) << alt.name();
    }
    if (insts.empty()) continue;
    // Grow a couple of levels and compare the full projection at each.
    for (EventId second = 0; second < db.dictionary().size(); ++second) {
      Pattern pat = Pattern{ev}.Extend(second);
      InstanceList pat_insts = FindAllInstances(pat, db);
      if (pat_insts.empty()) continue;
      ForwardExtensionMap csr_fwd;
      ForwardExtensions(cb, pat, pat_insts, /*min_count=*/1, &csr_ws, &csr_fwd);
      const BackwardExtensionMap& csr_back =
          BackwardExtensions(cb, pat, pat_insts, /*min_count=*/1, &csr_ws);
      // Copy: the reference lives in the workspace.
      BackwardExtensionMap csr_back_copy;
      for (const auto& [e, ext] : csr_back) csr_back_copy.emplace_back(e, ext);
      for (size_t a = 0; a < alts.size(); ++a) {
        const CountingBackend& alt = alts[a];
        ForwardExtensionMap alt_fwd;
        ForwardExtensions(alt, pat, pat_insts, /*min_count=*/1, &alt_ws[a],
                          &alt_fwd);
        ASSERT_EQ(csr_fwd.size(), alt_fwd.size())
            << alt.name() << " " << pat.ToString();
        auto it = alt_fwd.begin();
        for (const auto& [e, il] : csr_fwd) {
          ASSERT_EQ(e, it->first) << alt.name() << " " << pat.ToString();
          ASSERT_EQ(il, it->second) << alt.name() << " " << pat.ToString();
          ++it;
        }
        const BackwardExtensionMap& alt_back = BackwardExtensions(
            alt, pat, pat_insts, /*min_count=*/1, &alt_ws[a]);
        ASSERT_EQ(csr_back_copy.size(), alt_back.size())
            << alt.name() << " " << pat.ToString();
        auto bit = alt_back.begin();
        for (const auto& [e, ext] : csr_back_copy) {
          ASSERT_EQ(e, bit->first) << alt.name();
          ASSERT_EQ(ext.support, bit->second.support)
              << alt.name() << " " << pat.ToString();
          ASSERT_EQ(ext.all_adjacent, bit->second.all_adjacent)
              << alt.name() << " " << pat.ToString();
          ++bit;
        }
        // The QRE recount and the occurrence count agree with the oracles.
        ASSERT_EQ(CountInstances(alt, pat), CountInstances(pat, db))
            << alt.name();
        ASSERT_EQ(CountOccurrences(alt, pat), CountOccurrences(pat, db))
            << alt.name();
      }
    }
  }
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

// The min_count contract of the backend-dispatching projection queries:
// at threshold k each returns exactly the k = 1 map minus its entries
// below k, on csr, bitmap (cutoff 1), hybrid and an all-sparse hybrid,
// for k in {1, 2, the pattern's support and one below it, one above the
// smallest event count present}, over every length-1 and length-2
// pattern of \p db and every length-3 extension of a length-2 pattern
// that occurs. At k = the support the vertical backward query walks only
// the first instance and probes the rest (windows and two gaps at
// length 3); one below it, each candidate may miss one instance.
// Returns how many dropped entries belonged to an event whose total count
// is below k — events inside candidate windows that the count-bound scan
// filter skips.
size_t CheckMinCountContract(const SequenceDatabase& db) {
  PositionIndex csr(db);
  HybridIndex bitmap(db, kBitmapDenseCutoff);
  HybridIndex hybrid(db);
  HybridIndex all_sparse(db, ~uint64_t{0});
  const std::array<CountingBackend, 4> backends = {
      CountingBackend(csr), CountingBackend(bitmap), CountingBackend(hybrid),
      CountingBackend(all_sparse)};
  std::array<ProjectionWorkspace, 4> ws;
  const size_t num_events = db.dictionary().size();
  uint64_t smallest = ~uint64_t{0};
  std::vector<Pattern> patterns;
  for (EventId a = 0; a < num_events; ++a) {
    if (csr.TotalCount(a) > 0) {
      smallest = std::min<uint64_t>(smallest, csr.TotalCount(a));
    }
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
    const ForwardEntries all_fwd = Entries(ForwardExtensions(csr, pat, insts));
    const BackwardEntries all_back =
        Entries(BackwardExtensions(csr, pat, insts));
    const uint64_t support = insts.size();
    for (const uint64_t k : {uint64_t{1}, uint64_t{2}, support,
                             std::max<uint64_t>(support - 1, 1),
                             smallest + 1}) {
      SCOPED_TRACE(pat.ToString() + " min_count=" + std::to_string(k));
      ForwardEntries want_fwd;
      for (const auto& entry : all_fwd) {
        if (entry.second.size() >= k) {
          want_fwd.push_back(entry);
        } else if (csr.TotalCount(entry.first) < k) {
          ++count_bound_skips;
        }
      }
      BackwardEntries want_back;
      for (const auto& entry : all_back) {
        if (std::get<1>(entry) >= k) {
          want_back.push_back(entry);
        } else if (csr.TotalCount(std::get<0>(entry)) < k) {
          ++count_bound_skips;
        }
      }
      for (size_t b = 0; b < backends.size(); ++b) {
        ForwardExtensionMap got;
        ForwardExtensions(backends[b], pat, insts, k, &ws[b], &got);
        EXPECT_EQ(want_fwd, Entries(got)) << backends[b].name() << " #" << b;
        EXPECT_EQ(want_back, Entries(BackwardExtensions(backends[b], pat,
                                                        insts, k, &ws[b])))
            << backends[b].name() << " #" << b;
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
  const PositionIndex csr(db);
  const HybridIndex bitmap(db, kBitmapDenseCutoff);
  ProjectionWorkspace ws;
  const Pattern pa{a};
  const InstanceList insts = SingleEventInstances(csr, a);
  ASSERT_EQ(csr.TotalCount(x), 2u);
  ASSERT_EQ(csr.TotalCount(c), 3u);
  for (const CountingBackend& backend :
       {CountingBackend(csr), CountingBackend(bitmap)}) {
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
// instance's walk. `Backward` runs the query at min_count k on csr (which
// walks every instance), bitmap and an all-sparse hybrid, and checks that
// they agree.
class BackwardProbeTest : public ::testing::Test {
 protected:
  void Build(std::initializer_list<const char*> traces) {
    SequenceDatabaseBuilder builder;
    for (const char* trace : traces) builder.AddTraceFromString(trace);
    db_ = builder.Build();
    csr_.emplace(db_);
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
    const BackwardEntries want = Entries(
        BackwardExtensions(CountingBackend(*csr_), pat, insts, k, &ws));
    for (const CountingBackend& backend :
         {CountingBackend(*bitmap_), CountingBackend(*all_sparse_)}) {
      EXPECT_EQ(want, Entries(BackwardExtensions(backend, pat, insts, k, &ws)))
          << backend.name() << " " << pat.ToString() << " k=" << k;
    }
    return want;
  }

  SequenceDatabase db_;
  std::optional<PositionIndex> csr_;
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

// Full / closed / generator miners: byte-identical emission across
// backends x thresholds x thread counts, through one Engine session whose
// tasks pick the backend per arm.
TEST_P(BackendEquivalenceTest, MinersAreByteIdenticalAcrossBackends) {
  const EquivParams p = GetParam();
  const Engine engine(RandomDb(p.seed, p.num_seqs, p.max_len, p.alphabet));
  const auto mine = [&engine](auto task, BackendChoice backend) {
    task.options.backend = backend;
    Result<PatternSet> mined = engine.CollectPatterns(task);
    EXPECT_TRUE(mined.ok()) << mined.status().ToString();
    return mined.ok() ? Render(*mined, engine.dictionary()) : std::string();
  };
  // min_support 1 is omitted: the *full* pattern tree at support 1 grows
  // combinatorially on the larger corpora (equally on both backends) —
  // the low-threshold regime is covered by the smaller projection test.
  for (uint64_t min_sup : {2u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      FullPatternsTask full;
      full.options.min_support = min_sup;
      full.options.num_threads = threads;
      const std::string full_csr = mine(full, BackendChoice::kCsr);
      ASSERT_EQ(full_csr, mine(full, BackendChoice::kBitmap))
          << "full min_sup=" << min_sup << " threads=" << threads;
      ASSERT_EQ(full_csr, mine(full, BackendChoice::kHybrid))
          << "full/hybrid min_sup=" << min_sup << " threads=" << threads;

      ClosedTask closed;
      closed.options.min_support = min_sup;
      closed.options.num_threads = threads;
      const std::string closed_csr = mine(closed, BackendChoice::kCsr);
      ASSERT_EQ(closed_csr, mine(closed, BackendChoice::kBitmap))
          << "closed min_sup=" << min_sup << " threads=" << threads;
      ASSERT_EQ(closed_csr, mine(closed, BackendChoice::kHybrid))
          << "closed/hybrid min_sup=" << min_sup << " threads=" << threads;

      GeneratorsTask gens;
      gens.options.min_support = min_sup;
      gens.options.num_threads = threads;
      const std::string gens_csr = mine(gens, BackendChoice::kCsr);
      ASSERT_EQ(gens_csr, mine(gens, BackendChoice::kBitmap))
          << "generators min_sup=" << min_sup << " threads=" << threads;
      ASSERT_EQ(gens_csr, mine(gens, BackendChoice::kHybrid))
          << "generators/hybrid min_sup=" << min_sup
          << " threads=" << threads;
    }
  }
}

// Rules: the backend accelerates i-support counts and premise maximality
// tests; rule sets must match the backend-free scalar path exactly.
TEST_P(BackendEquivalenceTest, RulesAreByteIdenticalAcrossBackends) {
  const EquivParams p = GetParam();
  SequenceDatabase db = RandomDb(p.seed, p.num_seqs, p.max_len, p.alphabet);
  const EventDictionary& dict = db.dictionary();
  PositionIndex csr(db);
  HybridIndex bitmap(db, kBitmapDenseCutoff);
  HybridIndex hybrid(db);
  CountingBackend cb(csr), bb(bitmap), hb(hybrid);
  for (bool non_redundant : {true, false}) {
    RuleMinerOptions options;
    options.min_s_support = 2;
    options.min_confidence = 0.6;
    options.non_redundant = non_redundant;
    options.num_threads = 1;
    // Length caps keep the premise/consequent enumeration polynomial on
    // the dense tiny-alphabet corpora (the blowup is backend-independent).
    options.max_premise_length = 3;
    options.max_consequent_length = 3;
    RuleSet scalar = MineRecurrentRules(db, options, nullptr, nullptr);
    RuleSet with_csr = MineRecurrentRules(db, options, nullptr, nullptr, &cb);
    RuleSet with_bitmap =
        MineRecurrentRules(db, options, nullptr, nullptr, &bb);
    RuleSet with_hybrid =
        MineRecurrentRules(db, options, nullptr, nullptr, &hb);
    ASSERT_EQ(scalar.size(), with_csr.size());
    ASSERT_EQ(scalar.size(), with_bitmap.size());
    ASSERT_EQ(scalar.size(), with_hybrid.size());
    for (size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(scalar[i].ToString(dict), with_csr[i].ToString(dict));
      ASSERT_EQ(scalar[i].ToString(dict), with_bitmap[i].ToString(dict));
      ASSERT_EQ(scalar[i].ToString(dict), with_hybrid[i].ToString(dict));
      ASSERT_EQ(scalar[i].i_support, with_bitmap[i].i_support);
      ASSERT_EQ(scalar[i].i_support, with_hybrid[i].i_support);
    }
  }
}

// Sharded execution: forcing either backend on every shard (and mixing,
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
    task.options.backend = BackendChoice::kCsr;
    Result<PatternSet> reference = plain->CollectPatterns(task);
    ASSERT_TRUE(reference.ok());

    for (BackendChoice choice :
         {BackendChoice::kAuto, BackendChoice::kCsr, BackendChoice::kBitmap,
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
// and mining it with csr, across every miner family and thread count.
TEST_P(BackendEquivalenceTest, ShardedAutoMatchesEagerCsr) {
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
      task.options.num_threads = threads;
      task.options.backend = BackendChoice::kCsr;
      CollectingPatternSink want;
      ASSERT_TRUE(eager->Mine(task, want).ok());
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
      task.options.num_threads = threads;
      task.options.backend = BackendChoice::kCsr;
      CollectingPatternSink want;
      ASSERT_TRUE(eager->Mine(task, want).ok());
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
      task.options.num_threads = threads;
      task.options.backend = BackendChoice::kCsr;
      CollectingPatternSink want;
      ASSERT_TRUE(eager->Mine(task, want).ok());
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
  task.options.backend = BackendChoice::kCsr;
  CollectingPatternSink want;
  ASSERT_TRUE(eager->Mine(task, want).ok());
  task.options.backend = BackendChoice::kBitmap;
  CollectingPatternSink via_bitmap;
  Result<RunReport> run = sharded->Mine(task, via_bitmap);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->backend, "bitmap");
  EXPECT_EQ(Render(want.set(), db.dictionary()),
            Render(via_bitmap.set(), sharded->dictionary()));
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
    task.options.num_threads = threads;
    task.options.backend = BackendChoice::kCsr;
    CollectingPatternSink want;
    ASSERT_TRUE(healthy->Mine(task, want).ok());
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

  FullPatternsTask csr_task = bitmap_task;
  csr_task.options.backend = BackendChoice::kCsr;
  CollectingPatternSink sink3;
  Result<RunReport> third = engine.Mine(csr_task, sink3);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->backend, "csr");
  EXPECT_EQ(engine.index_builds(), 2u);  // Second representation.

  FullPatternsTask hybrid_task = bitmap_task;
  hybrid_task.options.backend = BackendChoice::kHybrid;
  CollectingPatternSink sink4;
  Result<RunReport> fourth = engine.Mine(hybrid_task, sink4);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->backend, "hybrid");
  EXPECT_EQ(engine.index_builds(), 3u);  // Third representation.
  CollectingPatternSink sink5;
  Result<RunReport> fifth = engine.Mine(hybrid_task, sink5);
  ASSERT_TRUE(fifth.ok());
  EXPECT_EQ(fifth->index_build_seconds, 0.0);  // Cached.
  EXPECT_EQ(engine.index_builds(), 3u);

  EXPECT_EQ(Render(sink1.set(), db.dictionary()),
            Render(sink3.set(), db.dictionary()));
  EXPECT_EQ(Render(sink1.set(), db.dictionary()),
            Render(sink4.set(), db.dictionary()));
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
  ASSERT_FALSE(CheckBitmapIndexable(db).ok());

  Result<Engine> engine = Engine::Create(SequenceDatabase(db));
  ASSERT_TRUE(engine.ok());
  FullPatternsTask task;
  task.options.min_support = 50;
  task.options.backend = BackendChoice::kBitmap;
  CollectingPatternSink refused;
  Result<RunReport> run = engine->Mine(task, refused);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kOutOfRange);
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
