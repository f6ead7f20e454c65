// Tests for the specmine CLI (driven through RunCli with captured
// streams; files go through a per-test temp directory).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/specmine/cli.h"

namespace specmine {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "cli_test_traces.txt";
    std::ofstream out(path_);
    out << "lock use unlock\n";
    out << "lock unlock lock unlock\n";
    out << "x lock y unlock\n";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  std::string path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, NoArgsPrintsUsageAndFails) {
  EXPECT_EQ(Run({}), 2);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("mine-rules"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(Run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, StatsPrintsShape) {
  EXPECT_EQ(Run({"stats", path_}), 0);
  EXPECT_NE(out_.str().find("3 sequences"), std::string::npos);
}

TEST_F(CliTest, StatsMissingFileFails) {
  EXPECT_EQ(Run({"stats", "/no/such/file"}), 5);
  EXPECT_NE(err_.str().find("IOError"), std::string::npos);
}

TEST_F(CliTest, StatsTracePrintsOneTrace) {
  EXPECT_EQ(Run({"stats", path_, "--trace", "0"}), 0);
  EXPECT_NE(out_.str().find("trace 0: lock use unlock"), std::string::npos);
}

TEST_F(CliTest, StatsTraceOutOfRangeIsAnErrorNotACrash) {
  EXPECT_EQ(Run({"stats", path_, "--trace", "17"}), 3);
  EXPECT_NE(err_.str().find("OutOfRange"), std::string::npos);
  EXPECT_NE(err_.str().find("17"), std::string::npos);
}

TEST_F(CliTest, PackThenMineFromSmdbMatchesTextOutput) {
  const std::string packed = ::testing::TempDir() + "cli_test_traces.smdb";
  EXPECT_EQ(Run({"pack", path_, packed}), 0);
  EXPECT_NE(out_.str().find("packed"), std::string::npos);

  EXPECT_EQ(Run({"mine-patterns", path_, "--min-sup", "0.6"}), 0);
  const std::string from_text = out_.str();
  EXPECT_EQ(Run({"mine-patterns", packed, "--min-sup", "0.6"}), 0);
  const std::string from_smdb = out_.str();
  // Identical output except the timing line (wall-clock differs).
  auto strip_timing = [](std::string s) {
    const size_t pos = s.find("timing:");
    const size_t end = s.find('\n', pos);
    return s.substr(0, pos) + s.substr(end + 1);
  };
  EXPECT_EQ(strip_timing(from_text), strip_timing(from_smdb));

  EXPECT_EQ(Run({"stats", packed}), 0);
  EXPECT_NE(out_.str().find("3 sequences"), std::string::npos);
  std::remove(packed.c_str());
}

TEST_F(CliTest, PackOntoItselfDoesNotDestroyTheInput) {
  const std::string packed = ::testing::TempDir() + "cli_test_selfpack.smdb";
  ASSERT_EQ(Run({"pack", path_, packed}), 0);
  // Repacking a mapped database onto its own path must neither crash nor
  // corrupt it (the writer goes through a temp file + rename).
  EXPECT_EQ(Run({"pack", packed, packed}), 0);
  EXPECT_EQ(Run({"stats", packed}), 0);
  EXPECT_NE(out_.str().find("3 sequences"), std::string::npos);
  std::remove(packed.c_str());
}

TEST_F(CliTest, PackShardedThenMineMatchesSmdbOutput) {
  const std::string packed = ::testing::TempDir() + "cli_test_set.smdb";
  const std::string sharded = ::testing::TempDir() + "cli_test_set.smdbset";
  ASSERT_EQ(Run({"pack", path_, packed}), 0);
  // Tiny bound: several shards with remapped local dictionaries.
  ASSERT_EQ(Run({"pack", path_, sharded, "--shard-bytes", "200"}), 0);
  EXPECT_NE(out_.str().find("shards"), std::string::npos);

  EXPECT_EQ(Run({"stats", sharded}), 0);
  EXPECT_NE(out_.str().find("3 sequences"), std::string::npos);
  EXPECT_NE(out_.str().find("shards:"), std::string::npos);

  auto strip_timing = [](std::string s) {
    const size_t pos = s.find("timing:");
    if (pos == std::string::npos) return s;
    const size_t end = s.find('\n', pos);
    return s.substr(0, pos) + s.substr(end + 1);
  };
  // Closed (merged path) and --full (per-shard parallel path) both match
  // the single-file output — the sharded-equivalence contract at the CLI.
  EXPECT_EQ(Run({"mine-patterns", packed, "--min-sup", "0.6"}), 0);
  const std::string closed_smdb = out_.str();
  EXPECT_EQ(Run({"mine-patterns", sharded, "--min-sup", "0.6"}), 0);
  EXPECT_EQ(strip_timing(closed_smdb), strip_timing(out_.str()));

  EXPECT_EQ(Run({"mine-patterns", packed, "--full", "--min-sup", "0.6"}), 0);
  const std::string full_smdb = out_.str();
  EXPECT_EQ(Run({"mine-patterns", sharded, "--full", "--min-sup", "0.6"}),
            0);
  EXPECT_EQ(strip_timing(full_smdb), strip_timing(out_.str()));

  EXPECT_EQ(Run({"mine-rules", packed}), 0);
  const std::string rules_smdb = out_.str();
  EXPECT_EQ(Run({"mine-rules", sharded}), 0);
  EXPECT_EQ(rules_smdb, out_.str());
  std::remove(packed.c_str());
  std::remove(sharded.c_str());
}

// stats' "auto backend:" line and mine-patterns' timing line name the
// same backend on a shard set: both resolve auto over the merged arena.
TEST_F(CliTest, StatsAutoBackendMatchesMineOnShardSet) {
  const std::string text = ::testing::TempDir() + "cli_test_dense.txt";
  const std::string sharded = ::testing::TempDir() + "cli_test_dense.smdbset";
  {
    // Dense enough (three events, many occurrences each) that auto picks
    // a vertical layout rather than the tiny-corpus csr fallback.
    std::ofstream out(text);
    for (int i = 0; i < 24; ++i) {
      out << "lock use unlock lock unlock use lock use unlock\n";
    }
  }
  ASSERT_EQ(Run({"pack", text, sharded, "--shard-bytes", "200"}), 0);

  auto backend_after = [](const std::string& s, const std::string& key) {
    const size_t pos = s.find(key);
    if (pos == std::string::npos) return std::string("<missing>");
    const size_t begin = pos + key.size();
    return s.substr(begin, s.find_first_of(",\n", begin) - begin);
  };
  ASSERT_EQ(Run({"stats", sharded}), 0);
  const std::string stats_backend = backend_after(out_.str(), "auto backend: ");
  EXPECT_EQ(stats_backend, "bitmap");
  ASSERT_EQ(Run({"mine-patterns", sharded, "--min-sup", "0.5"}), 0);
  EXPECT_EQ(backend_after(out_.str(), "timing: backend "), stats_backend);
  std::remove(text.c_str());
  std::remove(sharded.c_str());
}

TEST_F(CliTest, PackShardBytesRequiresSmdbSetOutput) {
  const std::string packed = ::testing::TempDir() + "cli_test_req.smdb";
  EXPECT_EQ(Run({"pack", path_, packed, "--shard-bytes", "200"}), 2);
  EXPECT_NE(err_.str().find(".smdbset"), std::string::npos);
}

TEST_F(CliTest, MineFromMissingShardSetFailsCleanly) {
  EXPECT_EQ(Run({"mine-rules", "/no/such/corpus.smdbset"}), 5);
  EXPECT_NE(err_.str().find("IOError"), std::string::npos);
}

TEST_F(CliTest, StatsTraceHugeIdReportsTheRequestedId) {
  EXPECT_EQ(Run({"stats", path_, "--trace", "5000000000"}), 3);
  EXPECT_NE(err_.str().find("5000000000"), std::string::npos);
}

TEST_F(CliTest, PackMissingOutputPathFails) {
  EXPECT_EQ(Run({"pack", path_}), 2);
  EXPECT_NE(err_.str().find("usage"), std::string::npos);
}

TEST_F(CliTest, MineFromCorruptSmdbFailsCleanly) {
  const std::string bogus = ::testing::TempDir() + "cli_test_bogus.smdb";
  std::ofstream(bogus) << "this is not a binary database";
  EXPECT_EQ(Run({"mine-rules", bogus}), 4);
  EXPECT_NE(err_.str().find("ParseError"), std::string::npos);
  std::remove(bogus.c_str());
}

TEST_F(CliTest, MinePatternsClosed) {
  EXPECT_EQ(Run({"mine-patterns", path_, "--min-sup", "0.9"}), 0);
  EXPECT_NE(out_.str().find("<lock, unlock>"), std::string::npos);
}

TEST_F(CliTest, MinePatternsGenerators) {
  EXPECT_EQ(Run({"mine-patterns", path_, "--min-sup", "0.9",
                 "--generators"}),
            0);
  // Singletons are generators; the absorbed pair is not reported as one
  // unless its support drops.
  EXPECT_NE(out_.str().find("<lock>"), std::string::npos);
}

TEST_F(CliTest, MineRulesWithLtl) {
  EXPECT_EQ(Run({"mine-rules", path_, "--min-ssup", "0.9", "--min-conf",
                 "0.9"}),
            0);
  EXPECT_NE(out_.str().find("<lock> -> <unlock>"), std::string::npos);
  EXPECT_NE(out_.str().find("G(lock -> XF(unlock))"), std::string::npos);
}

TEST_F(CliTest, MineRulesBackward) {
  EXPECT_EQ(Run({"mine-rules", path_, "--min-ssup", "0.9", "--min-conf",
                 "0.9", "--backward"}),
            0);
  EXPECT_NE(out_.str().find("previously"), std::string::npos);
}

TEST_F(CliTest, MineRulesRanked) {
  EXPECT_EQ(Run({"mine-rules", path_, "--min-ssup", "0.9", "--min-conf",
                 "0.9", "--rank"}),
            0);
  EXPECT_NE(out_.str().find("lift="), std::string::npos);
}

TEST_F(CliTest, CheckHoldsReturnsZero) {
  EXPECT_EQ(Run({"check", path_, "--ltl", "G(lock -> XF(unlock))"}), 0);
  EXPECT_NE(out_.str().find("3 / 3"), std::string::npos);
}

TEST_F(CliTest, CheckViolationReturnsOne) {
  EXPECT_EQ(Run({"check", path_, "--ltl", "G(lock -> XF(use))"}), 1);
  EXPECT_NE(out_.str().find("VIOLATED"), std::string::npos);
}

TEST_F(CliTest, CheckBadFormulaFails) {
  EXPECT_EQ(Run({"check", path_, "--ltl", "G(lock -> "}), 4);
  EXPECT_NE(err_.str().find("ParseError"), std::string::npos);
}

TEST_F(CliTest, GenQuestWritesDataset) {
  std::string out_path = ::testing::TempDir() + "cli_test_quest.txt";
  EXPECT_EQ(Run({"gen-quest", out_path, "--d", "0.05", "--c", "10", "--n",
                 "0.05", "--s", "4"}),
            0);
  EXPECT_NE(out_.str().find("wrote D0.05C10N0.05S4"), std::string::npos);
  EXPECT_EQ(Run({"stats", out_path}), 0);
  EXPECT_NE(out_.str().find("50 sequences"), std::string::npos);
  std::remove(out_path.c_str());
}

TEST_F(CliTest, MalformedCsvFailsWithLineNumber) {
  std::string csv_path = ::testing::TempDir() + "cli_test_bad_traces.csv";
  {
    std::ofstream out(csv_path);
    out << "t1,lock\nt1,unlock\nbroken-row\n";
  }
  EXPECT_EQ(Run({"stats", csv_path, "--csv"}), 4);
  EXPECT_NE(err_.str().find("ParseError"), std::string::npos);
  EXPECT_NE(err_.str().find("line 3"), std::string::npos);
  std::remove(csv_path.c_str());
}

TEST_F(CliTest, OutOfRangeConfidenceFails) {
  EXPECT_EQ(Run({"mine-rules", path_, "--min-ssup", "0.9", "--min-conf",
                 "1.5"}),
            3);
  EXPECT_NE(err_.str().find("InvalidArgument"), std::string::npos);
  EXPECT_NE(err_.str().find("min_confidence"), std::string::npos);
}

TEST_F(CliTest, MineSeqClosed) {
  EXPECT_EQ(Run({"mine-seq", path_, "--min-sup", "0.9", "--closed"}), 0);
  EXPECT_NE(out_.str().find("closed-sequential"), std::string::npos);
  EXPECT_NE(out_.str().find("<lock, unlock>"), std::string::npos);
}

TEST_F(CliTest, MineEpisodes) {
  EXPECT_EQ(Run({"mine-episodes", path_, "--window", "3", "--min-count",
                 "4"}),
            0);
  EXPECT_NE(out_.str().find("episodes (episodes-winepi)"), std::string::npos);
}

TEST_F(CliTest, MineEpisodesZeroWindowFails) {
  EXPECT_EQ(Run({"mine-episodes", path_, "--window", "0"}), 3);
  EXPECT_NE(err_.str().find("window_width"), std::string::npos);
}

TEST_F(CliTest, MinePairs) {
  EXPECT_EQ(Run({"mine-pairs", path_, "--min-sat", "1.0"}), 0);
  EXPECT_NE(out_.str().find("two-event rules"), std::string::npos);
  EXPECT_NE(out_.str().find("lock"), std::string::npos);
}

TEST_F(CliTest, VerifyWithoutArgsIsUsageError) {
  EXPECT_EQ(Run({"verify"}), 2);
  EXPECT_NE(err_.str().find("usage"), std::string::npos);
}

TEST_F(CliTest, VerifyGoodSmdbPasses) {
  const std::string packed = ::testing::TempDir() + "cli_test_verify.smdb";
  ASSERT_EQ(Run({"pack", path_, packed}), 0);
  EXPECT_EQ(Run({"verify", packed}), 0);
  EXPECT_NE(out_.str().find("OK"), std::string::npos);
  EXPECT_NE(out_.str().find("format v2"), std::string::npos);
  std::remove(packed.c_str());
}

TEST_F(CliTest, VerifyCorruptSmdbFailsWithCorruptionExitCode) {
  const std::string packed = ::testing::TempDir() + "cli_test_verify2.smdb";
  ASSERT_EQ(Run({"pack", path_, packed}), 0);
  {
    std::fstream f(packed, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);  // Inside the counts block: caught by the header digest.
    char b = 0;
    f.read(&b, 1);
    f.seekp(24);
    b ^= 0x01;
    f.write(&b, 1);
  }
  EXPECT_EQ(Run({"verify", packed}), 4);
  EXPECT_NE(err_.str().find("checksum"), std::string::npos);
  std::remove(packed.c_str());
}

TEST_F(CliTest, VerifyQuarantineReportsBadShardsAndFailsNonZero) {
  const std::string sharded = ::testing::TempDir() + "cli_test_vq.smdbset";
  const std::string shard0 = ::testing::TempDir() + "cli_test_vq.0000.smdb";
  ASSERT_EQ(Run({"pack", path_, sharded, "--shard-bytes", "200"}), 0);
  {
    std::ofstream f(shard0, std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  // kFail (default): hard error on the bad shard.
  EXPECT_NE(Run({"verify", sharded}), 0);
  // kQuarantine: the report names the shard; exit is still non-zero so
  // scripts can use verify as a health probe.
  EXPECT_EQ(Run({"verify", sharded, "--quarantine"}), 4);
  EXPECT_NE(out_.str().find("QUARANTINED shard 0"), std::string::npos);
  for (int i = 0; i < 8; ++i) {
    std::string shard = ::testing::TempDir() + "cli_test_vq.000" +
                        std::to_string(i) + ".smdb";
    std::remove(shard.c_str());
  }
  std::remove(sharded.c_str());
}

TEST_F(CliTest, QuarantineMinesTheHealthySubset) {
  const std::string sharded = ::testing::TempDir() + "cli_test_dq.smdbset";
  const std::string shard0 = ::testing::TempDir() + "cli_test_dq.0000.smdb";
  ASSERT_EQ(Run({"pack", path_, sharded, "--shard-bytes", "200"}), 0);
  {
    std::ofstream f(shard0, std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  // Without --quarantine the corrupt shard fails the whole run.
  EXPECT_EQ(Run({"mine-patterns", sharded, "--min-sup", "0.9"}), 4);
  // Degraded mode: the healthy subset still mines.
  EXPECT_EQ(
      Run({"mine-patterns", sharded, "--min-sup", "0.9", "--quarantine"}),
      0);
  EXPECT_NE(out_.str().find("patterns"), std::string::npos);
  for (int i = 0; i < 8; ++i) {
    std::string shard = ::testing::TempDir() + "cli_test_dq.000" +
                        std::to_string(i) + ".smdb";
    std::remove(shard.c_str());
  }
  std::remove(sharded.c_str());
}

TEST_F(CliTest, BadIntegrityFlagIsAnInvalidArgument) {
  EXPECT_EQ(Run({"stats", path_, "--integrity", "paranoid"}), 3);
  EXPECT_NE(err_.str().find("--integrity"), std::string::npos);
}

TEST_F(CliTest, ExpiredTimeoutCancelsMiningWithExitSix) {
  // A zero budget has already passed when mining starts, so the run stops
  // at the first cancellation point — deterministic, corpus-independent.
  EXPECT_EQ(Run({"mine-patterns", path_, "--min-sup", "0.9", "--timeout-ms",
                 "0"}),
            6);
  EXPECT_NE(err_.str().find("deadline"), std::string::npos);
}

TEST_F(CliTest, ExpiredTimeoutOnEveryMineCommand) {
  for (const char* cmd :
       {"mine-rules", "mine-seq", "mine-episodes", "mine-pairs"}) {
    EXPECT_EQ(Run({cmd, path_, "--timeout-ms", "0"}), 6) << cmd;
    EXPECT_NE(err_.str().find("deadline"), std::string::npos) << cmd;
  }
}

TEST_F(CliTest, CsvInput) {
  std::string csv_path = ::testing::TempDir() + "cli_test_traces.csv";
  {
    std::ofstream out(csv_path);
    out << "t1,lock\nt1,unlock\nt2,lock\nt2,unlock\n";
  }
  EXPECT_EQ(Run({"stats", csv_path, "--csv"}), 0);
  EXPECT_NE(out_.str().find("2 sequences"), std::string::npos);
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace specmine
