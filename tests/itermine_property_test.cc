// Property-based tests for iterative pattern mining, parameterized over
// seeded random databases: projection-vs-verifier agreement, apriori
// anti-monotonicity, full/closed cross-checks against the brute-force
// Definition-4.2 oracle, generators against deletion recounts, prune
// soundness, and coverage of the full set by the closed set.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/itermine/brute_force.h"
#include "src/itermine/projection.h"
#include "src/itermine/qre_verifier.h"
#include "src/support/random.h"

namespace specmine {
namespace {

struct RandomDbParams {
  uint64_t seed;
  size_t num_seqs;
  size_t max_len;
  size_t alphabet;
};

SequenceDatabase RandomDb(const RandomDbParams& p) {
  Rng rng(p.seed);
  SequenceDatabaseBuilder db;
  for (size_t i = 0; i < p.alphabet; ++i) {
    db.mutable_dictionary()->Intern("e" + std::to_string(i));
  }
  for (size_t s = 0; s < p.num_seqs; ++s) {
    Sequence seq;
    size_t len = 1 + rng.Uniform(p.max_len);
    for (size_t k = 0; k < len; ++k) {
      seq.Append(static_cast<EventId>(rng.Uniform(p.alphabet)));
    }
    db.AddSequence(seq);
  }
  return db.Build();
}

std::map<Pattern, uint64_t> ToMap(const PatternSet& set) {
  std::map<Pattern, uint64_t> out;
  for (const auto& it : set.items()) out[it.pattern] = it.support;
  return out;
}

// Runs \p task in a fresh Engine session over a copy of \p db, failing
// the test on an error Status.
template <typename Task>
PatternSet Collect(const SequenceDatabase& db, const Task& task) {
  Result<PatternSet> mined = Engine(db).CollectPatterns(task);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  return mined.ok() ? mined.TakeValueOrDie() : PatternSet{};
}

class IterMinePropertyTest : public ::testing::TestWithParam<RandomDbParams> {
};

TEST_P(IterMinePropertyTest, FullMinerMatchesBruteForce) {
  SequenceDatabase db = RandomDb(GetParam());
  for (uint64_t min_sup : {1u, 2u, 3u}) {
    IterMinerOptions options;
    options.min_support = min_sup;
    auto got = ToMap(Collect(db, FullPatternsTask{.options = options}));
    auto want = ToMap(BruteForceFrequentIterative(db, min_sup));
    ASSERT_EQ(got, want) << "min_sup=" << min_sup;
  }
}

// Generators against the definition: the brute-force frequent set,
// filtered by recounting every one-event deletion with the QRE verifier,
// in the full miner's emission order — at 1 and 4 threads, unbounded and
// with max_length set. The miner answers deletions from its scan's
// support table, so this pins that lookup to the recount it replaces.
TEST_P(IterMinePropertyTest, GeneratorsMatchDeletionRecountOracle) {
  SequenceDatabase db = RandomDb(GetParam());
  size_t non_generators = 0;
  for (uint64_t min_sup : {1u, 2u}) {
    for (size_t max_length : {size_t{0}, size_t{3}}) {
      const PatternSet frequent =
          BruteForceFrequentIterative(db, min_sup, max_length);
      std::map<Pattern, uint64_t> want;
      for (const auto& it : frequent.items()) {
        bool generator = true;
        for (size_t k = 0; k < it.pattern.size() && generator; ++k) {
          const Pattern deleted = it.pattern.Erase(k);
          generator =
              deleted.empty() || CountInstances(deleted, db) != it.support;
        }
        if (generator) {
          want[it.pattern] = it.support;
        } else {
          ++non_generators;
        }
      }
      for (size_t threads : {1u, 4u}) {
        SCOPED_TRACE("min_sup=" + std::to_string(min_sup) + " max_length=" +
                     std::to_string(max_length) +
                     " threads=" + std::to_string(threads));
        IterGeneratorMinerOptions options;
        options.min_support = min_sup;
        options.max_length = max_length;
        options.num_threads = threads;
        const PatternSet got = Collect(db, GeneratorsTask{.options = options});
        EXPECT_EQ(ToMap(got), want);
        IterMinerOptions full_options;
        full_options.min_support = min_sup;
        full_options.max_length = max_length;
        full_options.num_threads = threads;
        const PatternSet full =
            Collect(db, FullPatternsTask{.options = full_options});
        std::vector<MinedPattern> in_order;
        for (const auto& it : full.items()) {
          if (want.count(it.pattern) != 0) in_order.push_back(it);
        }
        EXPECT_EQ(got.items(), in_order) << "not in the scan's order";
      }
    }
  }
  // Every frequent pattern of a benchmark corpus can be a generator, so
  // the oracle must reject some here for the check to mean anything.
  EXPECT_GT(non_generators, 0u);
}

TEST_P(IterMinePropertyTest, SupportsAgreeWithIndependentVerifier) {
  SequenceDatabase db = RandomDb(GetParam());
  IterMinerOptions options;
  options.min_support = 2;
  PatternSet mined = Collect(db, FullPatternsTask{.options = options});
  for (const auto& it : mined.items()) {
    ASSERT_EQ(it.support, CountInstances(it.pattern, db))
        << it.pattern.ToString();
  }
}

TEST_P(IterMinePropertyTest, AprioriAntiMonotone) {
  // Theorem 1: sup(P ++ e) <= sup(P) and sup(e ++ P) <= sup(P).
  SequenceDatabase db = RandomDb(GetParam());
  IterMinerOptions options;
  options.min_support = 1;
  options.max_length = 3;
  PatternSet mined = Collect(db, FullPatternsTask{.options = options});
  for (const auto& it : mined.items()) {
    for (EventId ev = 0; ev < db.dictionary().size(); ++ev) {
      ASSERT_LE(CountInstances(it.pattern.Extend(ev), db), it.support);
      ASSERT_LE(CountInstances(it.pattern.Prepend(ev), db), it.support);
    }
  }
}

TEST_P(IterMinePropertyTest, InstancesAreValidQreMatchesAndKeyedByStart) {
  SequenceDatabase db = RandomDb(GetParam());
  IterMinerOptions options;
  options.min_support = 2;
  options.max_length = 4;
  PatternSet mined = Collect(db, FullPatternsTask{.options = options});
  for (const auto& it : mined.items()) {
    InstanceList insts = FindAllInstances(it.pattern, db);
    for (size_t i = 0; i < insts.size(); ++i) {
      ASSERT_TRUE(IsQreInstance(it.pattern, db[insts[i].seq], insts[i].start,
                                insts[i].end));
      if (i > 0 && insts[i].seq == insts[i - 1].seq) {
        // Unique per start position.
        ASSERT_GT(insts[i].start, insts[i - 1].start);
      }
    }
  }
}

TEST_P(IterMinePropertyTest, ClosedMinerMatchesDefinitionOracle) {
  SequenceDatabase db = RandomDb(GetParam());
  for (uint64_t min_sup : {1u, 2u, 3u}) {
    ClosedIterMinerOptions options;
    options.min_support = min_sup;
    auto got = ToMap(Collect(db, ClosedTask{.options = options}));
    auto want = ToMap(BruteForceClosedIterative(db, min_sup));
    ASSERT_EQ(got, want) << "min_sup=" << min_sup;
  }
}

TEST_P(IterMinePropertyTest, PrunesPreserveOutput) {
  SequenceDatabase db = RandomDb(GetParam());
  ClosedIterMinerOptions baseline;
  baseline.min_support = 2;
  baseline.prefix_prune = false;
  baseline.aggressive_prefix_prune = false;
  auto want = ToMap(Collect(db, ClosedTask{.options = baseline}));

  ClosedIterMinerOptions p1_only = baseline;
  p1_only.prefix_prune = true;
  ASSERT_EQ(ToMap(Collect(db, ClosedTask{.options = p1_only})), want)
      << "P1 diverged";

  ClosedIterMinerOptions p1_p2 = p1_only;
  p1_p2.aggressive_prefix_prune = true;
  ASSERT_EQ(ToMap(Collect(db, ClosedTask{.options = p1_p2})), want)
      << "P2 diverged";
}

TEST_P(IterMinePropertyTest, EveryFrequentPatternAbsorbedByClosedOne) {
  // Completeness of the closed representation: every frequent pattern has
  // a closed super-sequence (or equal) with the same support and total
  // instance correspondence.
  SequenceDatabase db = RandomDb(GetParam());
  const uint64_t min_sup = 2;
  auto full = BruteForceFrequentIterative(db, min_sup);
  ClosedIterMinerOptions options;
  options.min_support = min_sup;
  PatternSet closed = Collect(db, ClosedTask{.options = options});
  for (const auto& fp : full.items()) {
    bool covered = false;
    for (const auto& cp : closed.items()) {
      if (cp.support != fp.support) continue;
      if (!fp.pattern.IsSubsequenceOf(cp.pattern)) continue;
      if (HasTotalInstanceCorrespondence(db, fp.pattern, cp.pattern)) {
        covered = true;
        break;
      }
    }
    ASSERT_TRUE(covered) << fp.pattern.ToString();
  }
}

TEST_P(IterMinePropertyTest, ClosedCountNeverExceedsFullCount) {
  SequenceDatabase db = RandomDb(GetParam());
  for (uint64_t min_sup : {1u, 2u}) {
    IterMinerOptions fo;
    fo.min_support = min_sup;
    ClosedIterMinerOptions co;
    co.min_support = min_sup;
    EXPECT_LE(Collect(db, ClosedTask{.options = co}).size(),
              Collect(db, FullPatternsTask{.options = fo}).size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, IterMinePropertyTest,
    ::testing::Values(
        // Small alphabets force heavy event repetition (worst case for QRE
        // chaining); larger ones exercise sparse projections.
        RandomDbParams{11, 4, 6, 2}, RandomDbParams{12, 4, 6, 3},
        RandomDbParams{13, 5, 8, 3}, RandomDbParams{14, 5, 8, 4},
        RandomDbParams{15, 6, 7, 5}, RandomDbParams{16, 3, 10, 3},
        RandomDbParams{17, 8, 5, 4}, RandomDbParams{18, 6, 9, 2},
        RandomDbParams{19, 7, 6, 6}, RandomDbParams{20, 5, 12, 4}),
    [](const ::testing::TestParamInfo<RandomDbParams>& info) {
      const RandomDbParams& p = info.param;
      return "seed" + std::to_string(p.seed) + "n" +
             std::to_string(p.num_seqs) + "len" + std::to_string(p.max_len) +
             "a" + std::to_string(p.alphabet);
    });

}  // namespace
}  // namespace specmine
