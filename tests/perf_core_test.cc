// Property tests for the counting index and the parallel miners:
//
//  (a) every HybridIndex query (at the bitmap cutoff, the tuned cutoff
//      and with every event on the ID-list side) matches a naive scan of
//      the raw arena, on seeded random databases;
//  (b) mining with num_threads = 2, 3 and 4 produces output identical to
//      num_threads = 1 — patterns, supports and rules — across seeded
//      random inputs, for the full (also under a pruning sink), closed
//      and rule miners.

#include <gtest/gtest.h>

#include <atomic>

#include "src/engine/engine.h"
#include "src/itermine/hybrid_index.h"
#include "src/rulemine/rule_miner.h"
#include "src/support/random.h"
#include "src/support/thread_pool.h"

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
  // Intern the whole alphabet so event ids exist even for events that
  // never occur (the index must answer empty for those).
  for (size_t e = 0; e < p.alphabet; ++e) {
    db.mutable_dictionary()->Intern("e" + std::to_string(e));
  }
  for (size_t s = 0; s < p.num_seqs; ++s) {
    Sequence seq;
    size_t len = 1 + rng.Uniform(p.max_len);
    for (size_t i = 0; i < len; ++i) {
      seq.Append(static_cast<EventId>(rng.Uniform(p.alphabet)));
    }
    db.AddSequence(seq);
  }
  return db.Build();
}

// ---------------------------------------------------------------------------
// (a) HybridIndex queries vs naive scans.

class HybridIndexPropertyTest
    : public ::testing::TestWithParam<RandomDbParams> {};

void CheckIndexAgainstNaive(const SequenceDatabase& db,
                            const HybridIndex& index) {
  const size_t num_events = db.dictionary().size();
  const EventId* arena = db.arena();
  const size_t total = db.TotalEvents();
  ASSERT_EQ(index.num_events(), num_events);
  // Probe bounds: every sequence boundary and its neighbours, plus a
  // stride through the arena.
  std::vector<size_t> probes;
  for (SeqId s = 0; s <= db.size(); ++s) {
    const size_t at = db.offsets()[s];
    for (size_t q : {at, at + 1}) {
      if (q <= total) probes.push_back(q);
    }
    if (at > 0) probes.push_back(at - 1);
  }
  for (size_t q = 0; q <= total; q += 7) probes.push_back(q);
  for (EventId ev = 0; ev < num_events; ++ev) {
    size_t naive_total = 0;
    size_t naive_seqs = 0;
    for (SeqId s = 0; s < db.size(); ++s) {
      bool present = false;
      for (size_t g = db.offsets()[s]; g < db.offsets()[s + 1]; ++g) {
        if (arena[g] == ev) {
          ++naive_total;
          present = true;
        }
      }
      if (present) ++naive_seqs;
    }
    EXPECT_EQ(index.TotalCount(ev), naive_total) << "ev=" << ev;
    EXPECT_EQ(index.SequenceCount(ev), naive_seqs) << "ev=" << ev;
    for (size_t from : probes) {
      for (size_t limit : probes) {
        if (from > limit) continue;
        size_t first = kNoBit, count = 0;
        for (size_t g = from; g < limit; ++g) {
          if (arena[g] != ev) continue;
          if (first == kNoBit) first = g;
          ++count;
        }
        EXPECT_EQ(index.FirstOfEventAtOrAfter(ev, from, limit), first)
            << "ev=" << ev << " [" << from << ", " << limit << ")";
        EXPECT_EQ(index.AnyOfEventInRange(ev, from, limit), count > 0)
            << "ev=" << ev << " [" << from << ", " << limit << ")";
        EXPECT_EQ(index.CountOfEventInRange(ev, from, limit), count)
            << "ev=" << ev << " [" << from << ", " << limit << ")";
      }
    }
  }
  // Events past the dictionary answer empty, never crash.
  EXPECT_EQ(index.TotalCount(num_events + 7), 0u);
  EXPECT_EQ(index.SequenceCount(num_events + 7), 0u);
}

TEST_P(HybridIndexPropertyTest, BitmapLayoutMatchesNaiveScan) {
  SequenceDatabase db = RandomDb(GetParam());
  HybridIndex index(db, kBitmapDenseCutoff);
  CheckIndexAgainstNaive(db, index);
}

TEST_P(HybridIndexPropertyTest, TunedCutoffMatchesNaiveScan) {
  SequenceDatabase db = RandomDb(GetParam());
  HybridIndex index(db);
  CheckIndexAgainstNaive(db, index);
}

TEST_P(HybridIndexPropertyTest, AllSparseMatchesNaiveScan) {
  SequenceDatabase db = RandomDb(GetParam());
  HybridIndex index(db, ~uint64_t{0});  // Every event on the ID-list side.
  EXPECT_EQ(index.num_dense_events(), 0u);
  CheckIndexAgainstNaive(db, index);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, HybridIndexPropertyTest,
    ::testing::Values(RandomDbParams{101, 4, 8, 3},
                      RandomDbParams{102, 6, 10, 5},
                      RandomDbParams{103, 8, 14, 4},
                      RandomDbParams{104, 10, 20, 8},
                      RandomDbParams{105, 3, 30, 2},
                      RandomDbParams{106, 12, 12, 12}));

// ---------------------------------------------------------------------------
// (b) num_threads > 1 output is identical to num_threads = 1.

class ParallelEquivalenceTest
    : public ::testing::TestWithParam<RandomDbParams> {};

TEST_P(ParallelEquivalenceTest, FullMinerIdenticalAcrossThreadCounts) {
  Engine engine(RandomDb(GetParam()));
  for (uint64_t min_sup : {1u, 2u}) {
    FullPatternsTask seq;
    seq.options.min_support = min_sup;
    seq.options.num_threads = 1;
    FullPatternsTask par = seq;
    par.options.num_threads = 4;
    Result<PatternSet> a = engine.CollectPatterns(seq);
    Result<PatternSet> b = engine.CollectPatterns(par);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->items(), b->items()) << "min_sup=" << min_sup;
  }
}

TEST_P(ParallelEquivalenceTest, FullMinerTruncationIdentical) {
  Engine engine(RandomDb(GetParam()));
  FullPatternsTask seq;
  seq.options.min_support = 1;
  seq.options.max_patterns = 17;
  seq.options.num_threads = 1;
  FullPatternsTask par = seq;
  par.options.num_threads = 4;
  RunReport report_seq, report_par;
  Result<PatternSet> a = engine.CollectPatterns(seq, &report_seq);
  Result<PatternSet> b = engine.CollectPatterns(par, &report_par);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->items(), b->items());
  EXPECT_EQ(report_seq.truncated, report_par.truncated);
  EXPECT_EQ(report_seq.patterns_emitted, report_par.patterns_emitted);
}

// A sink that prunes (returns false on every k-th pattern) skips those
// subtrees inline at one thread and in the replay step at more; the
// delivered patterns must not tell the two apart.
TEST_P(ParallelEquivalenceTest, FullMinerPruningSinkIdentical) {
  Engine engine(RandomDb(GetParam()));
  class PruneEveryKth : public PatternSink {
   public:
    explicit PruneEveryKth(size_t k) : k_(k) {}
    bool Consume(const Pattern& pattern, uint64_t support) override {
      set.Add(pattern, support);
      return set.size() % k_ != 0;
    }
    PatternSet set;

   private:
    size_t k_;
  };
  for (size_t k : {size_t{2}, size_t{3}, size_t{7}}) {
    std::vector<MinedPattern> reference;
    for (size_t threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " threads=" + std::to_string(threads));
      FullPatternsTask task;
      task.options.min_support = 1;
      task.options.num_threads = threads;
      PruneEveryKth sink(k);
      Result<RunReport> run = engine.Mine(task, sink);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->patterns_emitted, sink.set.size());
      if (threads == 1) {
        reference = sink.set.items();
      } else {
        EXPECT_EQ(sink.set.items(), reference);
      }
    }
  }
}

TEST_P(ParallelEquivalenceTest, ClosedMinerIdenticalAcrossThreadCounts) {
  Engine engine(RandomDb(GetParam()));
  for (uint64_t min_sup : {1u, 2u}) {
    ClosedTask seq;
    seq.options.min_support = min_sup;
    seq.options.num_threads = 1;
    RunReport report_seq;
    Result<PatternSet> a = engine.CollectPatterns(seq, &report_seq);
    ASSERT_TRUE(a.ok());
    for (size_t threads : {2, 3, 4}) {
      ClosedTask par = seq;
      par.options.num_threads = threads;
      RunReport report_par;
      Result<PatternSet> b = engine.CollectPatterns(par, &report_par);
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->items(), b->items())
          << "min_sup=" << min_sup << " threads=" << threads;
      // The closed miner has no truncation, so even the search stats
      // merge to the sequential values.
      EXPECT_EQ(report_seq.nodes_visited, report_par.nodes_visited);
      EXPECT_EQ(report_seq.patterns_emitted, report_par.patterns_emitted);
      EXPECT_EQ(report_seq.subtrees_pruned, report_par.subtrees_pruned);
    }
  }
}

TEST_P(ParallelEquivalenceTest, RuleMinerIdenticalAcrossThreadCounts) {
  SequenceDatabase db = RandomDb(GetParam());
  const HybridIndex index(db);
  for (bool non_redundant : {false, true}) {
    RuleMinerOptions seq;
    seq.min_s_support = 2;
    seq.min_confidence = 0.5;
    seq.non_redundant = non_redundant;
    seq.max_premise_length = 3;
    seq.max_consequent_length = 3;
    seq.num_threads = 1;
    RuleMinerStats stats_seq;
    RuleSet a = MineRecurrentRules(index, seq, &stats_seq);
    for (size_t threads : {2, 3, 4}) {
      RuleMinerOptions par = seq;
      par.num_threads = threads;
      RuleMinerStats stats_par;
      RuleSet b = MineRecurrentRules(index, par, &stats_par);
      EXPECT_EQ(a.rules(), b.rules())
          << "nr=" << non_redundant << " threads=" << threads;
      EXPECT_EQ(stats_seq.premises_enumerated,
                stats_par.premises_enumerated);
      EXPECT_EQ(stats_seq.candidate_rules, stats_par.candidate_rules);
      EXPECT_EQ(stats_seq.rules_emitted, stats_par.rules_emitted);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, ParallelEquivalenceTest,
    ::testing::Values(RandomDbParams{201, 5, 8, 3},
                      RandomDbParams{202, 6, 10, 4},
                      RandomDbParams{203, 8, 12, 5},
                      RandomDbParams{204, 10, 9, 6},
                      RandomDbParams{205, 12, 15, 4}));

// The pool itself: tasks all run, Wait is re-usable.
TEST(ThreadPoolTest, RunsEveryTaskAndWaits) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 110);
}

}  // namespace
}  // namespace specmine
