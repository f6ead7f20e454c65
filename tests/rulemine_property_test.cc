// Property-based tests for recurrent rule mining against a brute-force
// oracle implementing Section 5's definitions directly (independent of the
// production occurrence engine), parameterized over seeded random
// databases.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/rulemine/backward_rules.h"
#include "src/rulemine/rule_miner.h"
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

// --------------------------------------------------------------------------
// Oracle primitives (independent re-implementations).

// Subsequence embedding into seq[from..to) by direct scan.
bool OracleEmbeds(const Pattern& p, EventSpan seq, size_t from,
                  size_t to) {
  size_t k = 0;
  for (size_t i = from; i < to && k < p.size(); ++i) {
    if (seq[i] == p[k]) ++k;
  }
  return k == p.size();
}

// Definition 5.1 occurrence points.
std::vector<size_t> OraclePoints(const Pattern& p, EventSpan seq) {
  std::vector<size_t> out;
  for (size_t j = 0; j < seq.size(); ++j) {
    if (seq[j] != p[p.size() - 1]) continue;
    // Prefix S[0..j] must contain p with its last event at j: equivalent
    // to p[0..n-2] embedding into S[0..j).
    Pattern head(std::vector<EventId>(p.events().begin(),
                                      p.events().end() - 1));
    if (OracleEmbeds(head, seq, 0, j)) out.push_back(j);
  }
  return out;
}

struct OracleStats {
  uint64_t s_support = 0;
  uint64_t i_support = 0;
  uint64_t premise_points = 0;
  uint64_t satisfied_points = 0;
};

// Forward rules: a point j is satisfied iff post embeds into S[j+1..]; the
// i-support counts the occurrences of pre ++ post. Backward (past-time)
// rules: j is satisfied iff post embeds into S[0..j-1]; the i-support
// counts the occurrences of post ++ pre.
OracleStats ComputeOracleStats(const SequenceDatabase& db, const Pattern& pre,
                               const Pattern& post, bool backward) {
  OracleStats st;
  Pattern concat = backward ? post.Concat(pre) : pre.Concat(post);
  for (EventSpan seq : db) {
    std::vector<size_t> points = OraclePoints(pre, seq);
    if (!points.empty()) ++st.s_support;
    st.premise_points += points.size();
    for (size_t j : points) {
      const bool satisfied = backward
                                 ? OracleEmbeds(post, seq, 0, j)
                                 : OracleEmbeds(post, seq, j + 1, seq.size());
      if (satisfied) ++st.satisfied_points;
    }
    st.i_support += OraclePoints(concat, seq).size();
  }
  return st;
}

// Enumerates every pattern over the alphabet up to max_len (complete, no
// pruning — small inputs only).
void EnumeratePatterns(size_t alphabet, size_t max_len, Pattern prefix,
                       std::vector<Pattern>* out) {
  if (prefix.size() >= max_len) return;
  for (EventId e = 0; e < alphabet; ++e) {
    Pattern p = prefix.Extend(e);
    out->push_back(p);
    EnumeratePatterns(alphabet, max_len, p, out);
  }
}

// The full significant rule set by definition, forward or backward.
std::map<std::pair<Pattern, Pattern>, OracleStats> OracleFullRules(
    const SequenceDatabase& db, uint64_t min_s_sup, double min_conf,
    uint64_t min_i_sup, size_t max_pre, size_t max_post,
    bool backward = false) {
  std::vector<Pattern> pres, posts;
  EnumeratePatterns(db.dictionary().size(), max_pre, Pattern(), &pres);
  EnumeratePatterns(db.dictionary().size(), max_post, Pattern(), &posts);
  std::map<std::pair<Pattern, Pattern>, OracleStats> out;
  for (const Pattern& pre : pres) {
    // Premise s-support prefilter.
    OracleStats pre_only =
        ComputeOracleStats(db, pre, Pattern{pre[0]}, backward);
    if (pre_only.s_support < min_s_sup) continue;
    for (const Pattern& post : posts) {
      OracleStats st = ComputeOracleStats(db, pre, post, backward);
      if (st.premise_points == 0) continue;
      double conf = static_cast<double>(st.satisfied_points) /
                    static_cast<double>(st.premise_points);
      if (st.s_support >= min_s_sup && conf >= min_conf - 1e-12 &&
          st.i_support >= min_i_sup) {
        out[{pre, post}] = st;
      }
    }
  }
  return out;
}

// --------------------------------------------------------------------------

class RuleMinePropertyTest : public ::testing::TestWithParam<RandomDbParams> {
};

TEST_P(RuleMinePropertyTest, FullMinerMatchesOracle) {
  SequenceDatabase db = RandomDb(GetParam());
  const size_t kMaxPre = 2;
  const size_t kMaxPost = 2;
  for (double min_conf : {0.5, 0.9}) {
    for (uint64_t min_s_sup : {2u, 3u}) {
      RuleMinerOptions options;
      options.min_s_support = min_s_sup;
      options.min_confidence = min_conf;
      options.min_i_support = 1;
      options.non_redundant = false;
      options.max_premise_length = kMaxPre;
      options.max_consequent_length = kMaxPost;
      RuleSet got = MineRecurrentRules(HybridIndex(db), options);
      auto want = OracleFullRules(db, min_s_sup, min_conf, 1, kMaxPre,
                                  kMaxPost);
      ASSERT_EQ(got.size(), want.size())
          << "min_conf=" << min_conf << " min_s_sup=" << min_s_sup;
      for (const Rule& r : got.rules()) {
        auto it = want.find({r.premise, r.consequent});
        ASSERT_NE(it, want.end()) << r.ToString(db.dictionary());
        EXPECT_EQ(r.s_support, it->second.s_support);
        EXPECT_EQ(r.i_support, it->second.i_support);
        EXPECT_EQ(r.premise_points, it->second.premise_points);
        EXPECT_EQ(r.satisfied_points, it->second.satisfied_points);
      }
    }
  }
}

TEST_P(RuleMinePropertyTest, FullBackwardMinerMatchesOracle) {
  SequenceDatabase db = RandomDb(GetParam());
  const HybridIndex index(db);
  const size_t kMaxPre = 2;
  const size_t kMaxPost = 2;
  for (double min_conf : {0.5, 0.9}) {
    for (uint64_t min_s_sup : {2u, 3u}) {
      auto want = OracleFullRules(db, min_s_sup, min_conf, 1, kMaxPre,
                                  kMaxPost, /*backward=*/true);
      for (size_t threads : {1u, 4u}) {
        RuleMinerOptions options;
        options.min_s_support = min_s_sup;
        options.min_confidence = min_conf;
        options.min_i_support = 1;
        options.non_redundant = false;
        options.max_premise_length = kMaxPre;
        options.max_consequent_length = kMaxPost;
        options.num_threads = threads;
        RuleSet got = MineBackwardRules(index, options);
        ASSERT_EQ(got.size(), want.size())
            << "min_conf=" << min_conf << " min_s_sup=" << min_s_sup
            << " threads=" << threads;
        for (const Rule& r : got.rules()) {
          auto it = want.find({r.premise, r.consequent});
          ASSERT_NE(it, want.end()) << r.ToString(db.dictionary());
          EXPECT_EQ(r.s_support, it->second.s_support);
          EXPECT_EQ(r.i_support, it->second.i_support);
          EXPECT_EQ(r.premise_points, it->second.premise_points);
          EXPECT_EQ(r.satisfied_points, it->second.satisfied_points);
        }
      }
    }
  }
}

TEST_P(RuleMinePropertyTest, NrRulesAreExactlyTheNonDominatedFullRules) {
  SequenceDatabase db = RandomDb(GetParam());
  // Unbounded lengths: the NR pipeline keeps the ⊑-maximal premise of
  // each equivalence class, which a premise-length cap could exclude.
  RuleMinerOptions full;
  full.min_s_support = 2;
  full.min_confidence = 0.7;
  full.non_redundant = false;
  RuleSet full_rules = MineRecurrentRules(HybridIndex(db), full);

  RuleMinerOptions nr = full;
  nr.non_redundant = true;
  RuleSet nr_rules = MineRecurrentRules(HybridIndex(db), nr);

  // (1) NR subset of Full with identical stats.
  for (const Rule& r : nr_rules.rules()) {
    const Rule* f = full_rules.Find(r.premise, r.consequent);
    ASSERT_NE(f, nullptr) << r.ToString(db.dictionary());
    ASSERT_EQ(*f, r);
  }
  // (2) Every Full rule is dominated by (or is) some NR rule.
  RedundancyOptions red;
  for (const Rule& r : full_rules.rules()) {
    bool covered = nr_rules.Find(r.premise, r.consequent) != nullptr;
    for (size_t i = 0; i < nr_rules.size() && !covered; ++i) {
      covered = IsRedundantTo(r, nr_rules[i], red);
    }
    ASSERT_TRUE(covered) << r.ToString(db.dictionary());
  }
  // (3) No NR rule is redundant to another NR rule.
  for (size_t i = 0; i < nr_rules.size(); ++i) {
    for (size_t j = 0; j < nr_rules.size(); ++j) {
      if (i == j) continue;
      ASSERT_FALSE(IsRedundantTo(nr_rules[i], nr_rules[j], red))
          << nr_rules[i].ToString(db.dictionary()) << " redundant to "
          << nr_rules[j].ToString(db.dictionary());
    }
  }
}

TEST_P(RuleMinePropertyTest, ConfidenceAprioriTheorem3) {
  // Extending the consequent never increases confidence.
  SequenceDatabase db = RandomDb(GetParam());
  RuleMinerOptions options;
  options.min_s_support = 2;
  options.min_confidence = 0.3;
  options.non_redundant = false;
  options.max_premise_length = 1;
  options.max_consequent_length = 2;
  RuleSet rules = MineRecurrentRules(HybridIndex(db), options);
  for (const Rule& r : rules.rules()) {
    if (r.consequent.size() != 2) continue;
    Pattern shorter(std::vector<EventId>{r.consequent[0]});
    const Rule* parent = rules.Find(r.premise, shorter);
    if (parent == nullptr) continue;
    EXPECT_GE(parent->satisfied_points, r.satisfied_points);
  }
}

TEST_P(RuleMinePropertyTest, SSupportAprioriTheorem2) {
  // Extending the premise never increases s-support.
  SequenceDatabase db = RandomDb(GetParam());
  RuleMinerOptions options;
  options.min_s_support = 1;
  options.min_confidence = 0.5;
  options.non_redundant = false;
  options.max_premise_length = 2;
  options.max_consequent_length = 1;
  RuleSet rules = MineRecurrentRules(HybridIndex(db), options);
  for (const Rule& r : rules.rules()) {
    if (r.premise.size() != 2) continue;
    Pattern shorter(std::vector<EventId>{r.premise[0]});
    const Rule* parent = rules.Find(shorter, r.consequent);
    if (parent == nullptr) continue;
    EXPECT_GE(parent->s_support, r.s_support);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, RuleMinePropertyTest,
    ::testing::Values(RandomDbParams{31, 4, 6, 2},
                      RandomDbParams{32, 4, 6, 3},
                      RandomDbParams{33, 5, 7, 3},
                      RandomDbParams{34, 5, 5, 4},
                      RandomDbParams{35, 6, 8, 3},
                      RandomDbParams{36, 3, 9, 2},
                      RandomDbParams{37, 6, 6, 4},
                      RandomDbParams{38, 8, 5, 3}),
    [](const ::testing::TestParamInfo<RandomDbParams>& info) {
      const RandomDbParams& p = info.param;
      return "seed" + std::to_string(p.seed) + "n" +
             std::to_string(p.num_seqs) + "len" + std::to_string(p.max_len) +
             "a" + std::to_string(p.alphabet);
    });

}  // namespace
}  // namespace specmine
