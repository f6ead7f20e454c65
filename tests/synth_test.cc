// Unit tests for src/synth: QUEST-style generator and planted-pattern
// generator.

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/itermine/qre_verifier.h"
#include "src/synth/planted_generator.h"
#include "src/synth/quest_generator.h"
#include "src/trace/database_stats.h"

namespace specmine {
namespace {

TEST(QuestParamsTest, LabelMatchesPaperNotation) {
  EXPECT_EQ(QuestParams::D5C20N10S20().Label(), "D5C20N10S20");
  QuestParams p;
  p.d_sequences_thousands = 0.5;
  p.c_avg_sequence_length = 15;
  p.n_events_thousands = 1;
  p.s_avg_pattern_length = 8;
  EXPECT_EQ(p.Label(), "D0.5C15N1S8");
}

TEST(QuestGeneratorTest, RejectsBadParameters) {
  QuestParams p;
  p.d_sequences_thousands = 0;
  EXPECT_FALSE(GenerateQuest(p).ok());
  p = QuestParams();
  p.n_events_thousands = -1;
  EXPECT_FALSE(GenerateQuest(p).ok());
  p = QuestParams();
  p.num_seed_patterns = 0;
  EXPECT_FALSE(GenerateQuest(p).ok());
}

QuestParams SmallParams() {
  QuestParams p;
  p.d_sequences_thousands = 0.2;  // 200 sequences.
  p.c_avg_sequence_length = 12;
  p.n_events_thousands = 0.05;  // 50 events.
  p.s_avg_pattern_length = 4;
  p.num_seed_patterns = 20;
  return p;
}

TEST(QuestGeneratorTest, HonoursShapeParameters) {
  Result<SequenceDatabase> db = GenerateQuest(SmallParams());
  ASSERT_TRUE(db.ok());
  DatabaseStats st = ComputeStats(*db);
  EXPECT_EQ(st.num_sequences, 200u);
  EXPECT_EQ(st.num_distinct_events, 50u);
  // Average length should be near C (within 50% tolerance: pattern
  // embedding may overshoot the Poisson target slightly).
  EXPECT_GT(st.avg_length, 6.0);
  EXPECT_LT(st.avg_length, 24.0);
}

TEST(QuestGeneratorTest, DeterministicForSeed) {
  Result<SequenceDatabase> a = GenerateQuest(SmallParams());
  Result<SequenceDatabase> b = GenerateQuest(SmallParams());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (SeqId s = 0; s < a->size(); ++s) EXPECT_EQ((*a)[s], (*b)[s]);
  QuestParams other = SmallParams();
  other.seed += 1;
  Result<SequenceDatabase> c = GenerateQuest(other);
  ASSERT_TRUE(c.ok());
  bool any_diff = c->size() != a->size();
  for (SeqId s = 0; !any_diff && s < a->size(); ++s) {
    any_diff = !((*a)[s] == (*c)[s]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(QuestGeneratorTest, PlantsRepeatedPatterns) {
  // The modification the paper describes: patterns repeat within and
  // across sequences, so frequent iterative patterns of length >= 2 must
  // exist at a support well above what independent noise would produce.
  Result<SequenceDatabase> db = GenerateQuest(SmallParams());
  ASSERT_TRUE(db.ok());
  FullPatternsTask task;
  task.options.min_support = 20;
  task.options.max_length = 3;
  Result<PatternSet> mined = Engine(*db).CollectPatterns(task);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  bool found_multi = false;
  for (const auto& it : mined->items()) {
    if (it.pattern.size() >= 2) found_multi = true;
  }
  EXPECT_TRUE(found_multi);
}

TEST(PlantedGeneratorTest, RejectsBadParameters) {
  PlantedParams p;
  p.num_sequences = 0;
  EXPECT_FALSE(GeneratePlanted(p).ok());
  p = PlantedParams();
  p.patterns.push_back(PlantedPattern{{}, 1, 1.0});
  EXPECT_FALSE(GeneratePlanted(p).ok());
  p = PlantedParams();
  p.patterns.push_back(PlantedPattern{{"a"}, 1, 1.5});
  EXPECT_FALSE(GeneratePlanted(p).ok());
  p = PlantedParams();
  p.patterns.push_back(PlantedPattern{{"a"}, 0, 1.0});
  EXPECT_FALSE(GeneratePlanted(p).ok());
}

TEST(PlantedGeneratorTest, ExpectedSupportsMatchMiner) {
  PlantedParams params;
  params.num_sequences = 40;
  params.seed = 123;
  params.patterns.push_back(PlantedPattern{{"lock", "unlock"}, 2, 1.0});
  params.patterns.push_back(PlantedPattern{{"open", "read", "close"}, 1, 0.5});
  Result<PlantedDatabase> planted = GeneratePlanted(params);
  ASSERT_TRUE(planted.ok());
  const SequenceDatabase& db = planted->db;
  // Disjoint alphabets: planted events never collide with noise, so each
  // planting is visible; two plantings per sequence in all 40 sequences.
  EXPECT_GE(planted->expected_instances[0], 80u);
  EXPECT_EQ(planted->expected_sequences[0], 40u);
  EXPECT_EQ(planted->expected_sequences[1], 20u);
  // The production miner must reproduce the verifier-derived counts.
  FullPatternsTask task;
  task.options.min_support = 10;
  task.options.max_length = 3;
  Result<PatternSet> mined = Engine(db).CollectPatterns(task);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  Pattern lock_unlock{db.dictionary().Lookup("lock"),
                      db.dictionary().Lookup("unlock")};
  EXPECT_EQ(mined->SupportOf(lock_unlock), planted->expected_instances[0]);
  Pattern orc{db.dictionary().Lookup("open"), db.dictionary().Lookup("read"),
              db.dictionary().Lookup("close")};
  EXPECT_EQ(mined->SupportOf(orc), planted->expected_instances[1]);
}

TEST(PlantedGeneratorTest, FractionSelectsPrefixOfSequences) {
  PlantedParams params;
  params.num_sequences = 10;
  params.max_noise_run = 0;
  params.patterns.push_back(PlantedPattern{{"a", "b"}, 1, 0.3});
  Result<PlantedDatabase> planted = GeneratePlanted(params);
  ASSERT_TRUE(planted.ok());
  EXPECT_EQ(planted->expected_sequences[0], 3u);
  // With no noise, receiving traces are exactly "a b".
  EXPECT_EQ(planted->db[0].size(), 2u);
  EXPECT_TRUE(planted->db[9].empty());
}

TEST(PlantedGeneratorTest, DeterministicForSeed) {
  PlantedParams params;
  params.num_sequences = 15;
  params.patterns.push_back(PlantedPattern{{"x", "y", "z"}, 1, 1.0});
  Result<PlantedDatabase> a = GeneratePlanted(params);
  Result<PlantedDatabase> b = GeneratePlanted(params);
  ASSERT_TRUE(a.ok() && b.ok());
  for (SeqId s = 0; s < a->db.size(); ++s) {
    EXPECT_EQ(a->db[s], b->db[s]);
  }
}

TEST(PlantedGeneratorTest, SelfOverlapCountedByVerifier) {
  // <a, a> planted twice per sequence: straddling instances make the true
  // count exceed 2 per sequence; the generator must report the verifier
  // truth, not the naive 2.
  PlantedParams params;
  params.num_sequences = 5;
  params.max_noise_run = 0;
  params.patterns.push_back(PlantedPattern{{"a", "a"}, 2, 1.0});
  Result<PlantedDatabase> planted = GeneratePlanted(params);
  ASSERT_TRUE(planted.ok());
  // Each trace is "a a a a": instances (0,1), (1,2), (2,3) -> 3 each.
  EXPECT_EQ(planted->expected_instances[0], 15u);
}

}  // namespace
}  // namespace specmine
