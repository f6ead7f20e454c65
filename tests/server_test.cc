// End-to-end tests for the specmined server: real sockets on an
// ephemeral port, raw HTTP/1.1 on the wire, and the server/CLI JSON
// equivalence contract — a mine route's response body must be byte-
// identical to `specmine mine-* --json` for the same corpus and options,
// timing fields aside.
//
// The final test launches the actual specmined binary (when present in
// the working directory, as under ctest), scrapes its ephemeral port from
// stdout, drives one request, and asserts SIGTERM exits 0 — the same
// lifecycle the CI smoke step checks with curl.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/specmine/cli.h"
#include "src/support/net.h"
#include "src/trace/shard_set.h"

namespace specmine {
namespace {

// Blocking round trip: one request, read to connection close.
std::string RoundTrip(uint16_t port, const std::string& raw) {
  Result<Socket> socket = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(socket.ok()) << socket.status().ToString();
  if (!socket.ok()) return "";
  EXPECT_TRUE(socket->WriteAll(raw).ok());
  std::string response;
  char buffer[4096];
  while (true) {
    Result<size_t> n = socket->Read(buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) break;
    response.append(buffer, *n);
  }
  return response;
}

std::string PostJson(uint16_t port, const std::string& path,
                     const std::string& body) {
  return RoundTrip(port, "POST " + path + " HTTP/1.1\r\nConnection: close\r\n"
                             "Content-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body);
}

std::string Get(uint16_t port, const std::string& path) {
  return RoundTrip(port,
                   "GET " + path + " HTTP/1.1\r\nConnection: close\r\n\r\n");
}

int StatusOf(const std::string& response) {
  return response.size() > 12 ? std::atoi(response.c_str() + 9) : -1;
}

std::string BodyOf(const std::string& response) {
  size_t blank = response.find("\r\n\r\n");
  return blank == std::string::npos ? "" : response.substr(blank + 4);
}

// Drops the run-varying report lines (index_build_seconds, mine_seconds)
// so equal runs compare equal.
std::string StripTimings(const std::string& text) {
  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("_seconds") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// One metric family as the catalog documents it or the scrape declares
// it: its type, and every distinct set of label names its samples carry
// (one set — the labels column — for a documented row).
struct MetricShape {
  std::string type;
  std::set<std::set<std::string>> label_sets;
};

// Capture group 1 of every match of \p re in \p text.
std::set<std::string> Captures(const std::string& text, const std::regex& re) {
  std::set<std::string> out;
  for (std::sregex_iterator it(text.begin(), text.end(), re), end;
       it != end; ++it) {
    out.insert((*it)[1]);
  }
  return out;
}

// The metrics catalog table in docs/server.md: each row under
// "## 5. Metrics catalog" reads | `series` | type | `label`, ... | meaning |.
std::map<std::string, MetricShape> DocumentedMetrics() {
  static const std::regex kRow(R"(^\| `([^`]+)` \| (\w+) \|([^|]*)\|)");
  static const std::regex kBackticked("`([^`]+)`");
  std::ifstream doc(std::string(SPECMINE_SOURCE_DIR) + "/docs/server.md");
  std::map<std::string, MetricShape> metrics;
  bool in_catalog = false;
  std::smatch row;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("## ", 0) == 0) {
      in_catalog = line.find("Metrics catalog") != std::string::npos;
    } else if (in_catalog && std::regex_search(line, row, kRow)) {
      metrics[row[1]] = {row[2], {Captures(row[3], kBackticked)}};
    }
  }
  return metrics;
}

// The /metrics exposition per family: the "# TYPE" kind and the label
// names of each sample. A histogram's _bucket/_sum/_count samples belong
// to their family, and `le` on _bucket rows is the bucket bound, not a
// label of the family.
std::map<std::string, MetricShape> ScrapedMetrics(const std::string& body) {
  static const std::regex kType(R"(^# TYPE (\S+) (\S+))");
  // name="value" pairs; a value may hold braces, commas and escapes.
  static const std::regex kLabel(R"re((\w+)="(?:[^"\\]|\\.)*")re");
  std::map<std::string, MetricShape> metrics;
  std::istringstream lines(body);
  std::smatch type;
  for (std::string line; std::getline(lines, line);) {
    if (std::regex_search(line, type, kType)) {
      metrics[type[1]].type = type[2];
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    std::string family = line.substr(0, name_end);
    std::set<std::string> labels;
    if (name_end != std::string::npos && line[name_end] == '{') {
      labels = Captures(line.substr(name_end), kLabel);
    }
    if (family.ends_with("_bucket")) labels.erase("le");
    if (metrics.count(family) == 0) {
      for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
        if (family.ends_with(suffix)) {
          family.resize(family.size() - suffix.size());
        }
      }
    }
    metrics[family].label_sets.insert(labels);
  }
  return metrics;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    traces_path_ = ::testing::TempDir() + "server_test_traces.txt";
    std::ofstream out(traces_path_);
    out << "lock use unlock\n";
    out << "lock unlock lock unlock\n";
    out << "x lock y unlock\n";
    out.close();
    ASSERT_TRUE(registry_
                    .Register("demo", traces_path_, CorpusOpenOptions())
                    .ok());
    ServerOptions options;
    options.port = 0;  // Ephemeral.
    server_ = std::make_unique<Server>(&registry_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    std::remove(traces_path_.c_str());
  }

  // The CLI's --json output for \p args (which must include --json).
  std::string CliJson(std::vector<std::string> args) {
    std::ostringstream out, err;
    EXPECT_EQ(RunCli(args, out, err), 0) << err.str();
    return out.str();
  }

  uint16_t port() const { return server_->port(); }

  std::string traces_path_;
  CorpusRegistry registry_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, HealthzReportsOkAndBuildInfo) {
  std::string response = Get(port(), "/healthz");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(BodyOf(response).find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(BodyOf(response).find("\"version\""), std::string::npos);
  EXPECT_NE(BodyOf(response).find("\"revision\""), std::string::npos);
}

// The tentpole equivalence: each mine route's 200 body is byte-identical
// to the CLI's --json output, modulo the *_seconds report fields.
TEST_F(ServerTest, MinePatternsMatchesCliJson) {
  std::string response =
      PostJson(port(), "/mine/patterns", R"({"corpus": "demo"})");
  ASSERT_EQ(StatusOf(response), 200);
  EXPECT_EQ(StripTimings(BodyOf(response)),
            StripTimings(CliJson({"mine-patterns", traces_path_, "--json"})));
}

TEST_F(ServerTest, MineFullPatternsMatchesCliJson) {
  std::string response = PostJson(
      port(), "/mine/patterns",
      R"({"corpus": "demo", "full": true, "min_sup": 0.3, "max_len": 3})");
  ASSERT_EQ(StatusOf(response), 200);
  EXPECT_EQ(StripTimings(BodyOf(response)),
            StripTimings(CliJson({"mine-patterns", traces_path_, "--json",
                                  "--full", "--min-sup", "0.3", "--max-len",
                                  "3"})));
}

TEST_F(ServerTest, MineRulesMatchesCliJson) {
  std::string response = PostJson(
      port(), "/mine/rules",
      R"({"corpus": "demo", "min_ssup": 0.3, "min_conf": 0.5})");
  ASSERT_EQ(StatusOf(response), 200);
  EXPECT_EQ(StripTimings(BodyOf(response)),
            StripTimings(CliJson({"mine-rules", traces_path_, "--json",
                                  "--min-ssup", "0.3", "--min-conf", "0.5"})));
}

TEST_F(ServerTest, MineSeqMatchesCliJson) {
  std::string response = PostJson(
      port(), "/mine/seq", R"({"corpus": "demo", "closed": true})");
  ASSERT_EQ(StatusOf(response), 200);
  EXPECT_EQ(
      StripTimings(BodyOf(response)),
      StripTimings(CliJson({"mine-seq", traces_path_, "--json", "--closed"})));
}

TEST_F(ServerTest, MineEpisodesMatchesCliJson) {
  std::string response = PostJson(
      port(), "/mine/episodes", R"({"corpus": "demo", "window": 5})");
  ASSERT_EQ(StatusOf(response), 200);
  EXPECT_EQ(StripTimings(BodyOf(response)),
            StripTimings(CliJson({"mine-episodes", traces_path_, "--json",
                                  "--window", "5"})));
}

TEST_F(ServerTest, MinePairsMatchesCliJson) {
  std::string response = PostJson(
      port(), "/mine/pairs", R"({"corpus": "demo", "min_sat": 0.5})");
  ASSERT_EQ(StatusOf(response), 200);
  EXPECT_EQ(StripTimings(BodyOf(response)),
            StripTimings(CliJson({"mine-pairs", traces_path_, "--json",
                                  "--min-sat", "0.5"})));
}

TEST_F(ServerTest, ErrorEnvelopesUseTheStatusMapping) {
  // Unknown corpus -> NotFound -> 404.
  EXPECT_EQ(StatusOf(PostJson(port(), "/mine/patterns",
                              R"({"corpus": "missing"})")),
            404);
  // Malformed body JSON -> ParseError -> 422.
  EXPECT_EQ(StatusOf(PostJson(port(), "/mine/patterns", "{oops")), 422);
  // Bad field value -> InvalidArgument -> 400.
  EXPECT_EQ(StatusOf(PostJson(port(), "/mine/patterns",
                              R"({"corpus": "demo", "backend": "frob"})")),
            400);
  // Unrouted path -> 404; wrong method -> 405.
  EXPECT_EQ(StatusOf(Get(port(), "/nope")), 404);
  EXPECT_EQ(StatusOf(Get(port(), "/mine/patterns")), 405);
  // (kDeadlineExceeded -> 504 is pinned in the exhaustive StatusToHttp
  // test; a live expired-deadline request would race the miner on a tiny
  // corpus.)
}

TEST_F(ServerTest, AdmissionOverflowIs429WithRetryAfter) {
  // One slot, no queue: holding the slot from outside makes the shed
  // path deterministic (no timing games with slow requests).
  ServerOptions options;
  options.port = 0;
  options.admission.max_concurrent = 1;
  options.admission.max_queued = 0;
  Server throttled(&registry_, options);
  ASSERT_TRUE(throttled.Start().ok());
  ASSERT_TRUE(throttled.admission().Acquire());
  std::string response =
      PostJson(throttled.port(), "/mine/patterns", R"({"corpus": "demo"})");
  EXPECT_EQ(StatusOf(response), 429);
  EXPECT_NE(response.find("Retry-After:"), std::string::npos);
  throttled.admission().Release();
  // Capacity restored: the same request mines fine again.
  EXPECT_EQ(StatusOf(PostJson(throttled.port(), "/mine/patterns",
                              R"({"corpus": "demo"})")),
            200);
  throttled.Stop();
}

TEST_F(ServerTest, MetricsScrapeCarriesTheCatalog) {
  // Generate some traffic first.
  (void)PostJson(port(), "/mine/patterns", R"({"corpus": "demo"})");
  (void)PostJson(port(), "/mine/patterns", R"({"corpus": "demo"})");
  std::string response = Get(port(), "/metrics");
  ASSERT_EQ(StatusOf(response), 200);
  const std::string body = BodyOf(response);
  for (const char* series :
       {"specmined_requests_total{route=\"/mine/patterns\",code=\"200\"} 2",
        "specmined_request_duration_seconds_bucket",
        "specmined_requests_in_flight", "specmined_mine_queue_depth",
        "specmined_admission_rejected_total",
        "specmined_index_cache_misses_total 1",
        "specmined_index_cache_hits_total 1",
        "specmined_mine_backend_total", "specmined_patterns_emitted_total",
        "specmined_corpora 1", "specmined_quarantined_shards 0"}) {
    EXPECT_NE(body.find(series), std::string::npos) << series;
  }
  // The scrape and the catalog table of docs/server.md list the same
  // series, and each with the same type and the same label names. The
  // traffic above gives every labelled series at least one sample.
  const std::map<std::string, MetricShape> scraped = ScrapedMetrics(body);
  const std::map<std::string, MetricShape> documented = DocumentedMetrics();
  ASSERT_FALSE(documented.empty()) << "no catalog in docs/server.md";
  std::set<std::string> scraped_names, documented_names;
  for (const auto& [name, shape] : scraped) scraped_names.insert(name);
  for (const auto& [name, shape] : documented) documented_names.insert(name);
  EXPECT_EQ(scraped_names, documented_names);
  for (const auto& [name, doc] : documented) {
    const auto it = scraped.find(name);
    if (it == scraped.end()) continue;
    EXPECT_EQ(it->second.type, doc.type) << name;
    EXPECT_EQ(it->second.label_sets, doc.label_sets) << name;
  }
}

TEST_F(ServerTest, KeepAlivePipeliningServesBothRequests) {
  Result<Socket> socket = ConnectTcp("127.0.0.1", port());
  ASSERT_TRUE(socket.ok());
  // Two requests written back to back in one segment; the second closes.
  ASSERT_TRUE(socket
                  ->WriteAll(
                      "GET /healthz HTTP/1.1\r\n\r\n"
                      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                  .ok());
  std::string response;
  char buffer[4096];
  while (true) {
    Result<size_t> n = socket->Read(buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) break;
    response.append(buffer, *n);
  }
  // Both responses arrive on the one connection, in order.
  EXPECT_EQ(response.find("HTTP/1.1 200 OK"), 0u);
  EXPECT_NE(response.find("HTTP/1.1 200 OK", 10), std::string::npos);
  EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
}

TEST_F(ServerTest, RegisterCorpusAtRuntimeThenMineIt) {
  const std::string path = ::testing::TempDir() + "server_test_second.txt";
  {
    std::ofstream out(path);
    out << "a b a b\nb a b\n";
  }
  std::string response = PostJson(
      port(), "/corpora",
      R"({"name": "second", "path": ")" + path + R"("})");
  EXPECT_EQ(StatusOf(response), 201);
  EXPECT_EQ(StatusOf(PostJson(port(), "/mine/patterns",
                              R"({"corpus": "second"})")),
            200);
  // Duplicate names are rejected.
  EXPECT_EQ(StatusOf(PostJson(
                port(), "/corpora",
                R"({"name": "second", "path": ")" + path + R"("})")),
            400);
  std::string list = Get(port(), "/corpora");
  EXPECT_NE(BodyOf(list).find("\"second\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ServerTest, AppendRouteCommitsAndBumpsTheGeneration) {
  // A sharded corpus to append to (the route is .smdbset-only).
  const std::string path = ::testing::TempDir() + "server_test_append.smdbset";
  {
    SequenceDatabaseBuilder builder;
    builder.AddTraceFromString("lock use unlock");
    builder.AddTraceFromString("lock unlock");
    ASSERT_TRUE(WriteShardedDatabase(builder.Build(), path).ok());
  }
  ASSERT_EQ(StatusOf(PostJson(
                port(), "/corpora",
                R"({"name": "shards", "path": ")" + path + R"("})")),
            201);

  std::string response =
      PostJson(port(), "/corpora/shards/append",
               R"({"traces": ["lock use use unlock", "use unlock"]})");
  EXPECT_EQ(StatusOf(response), 200);
  const std::string body = BodyOf(response);
  EXPECT_NE(body.find("\"appended\": 2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"generation\": 1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"sequences\": 4"), std::string::npos) << body;

  // The registry swapped the new generation in: mines see 4 traces.
  std::string mined = PostJson(port(), "/mine/patterns",
                               R"({"corpus": "shards", "min_support": 4})");
  EXPECT_EQ(StatusOf(mined), 200);
  EXPECT_NE(BodyOf(mined).find("\"unlock\""), std::string::npos);

  // Appends are observable: counters plus the per-corpus generation.
  const std::string metrics = BodyOf(Get(port(), "/metrics"));
  for (const char* series :
       {"specmined_corpus_appends_total 1",
        "specmined_corpus_appended_traces_total 2",
        "specmined_corpus_generation{corpus=\"shards\"} 1"}) {
    EXPECT_NE(metrics.find(series), std::string::npos) << series;
  }

  // Error contract: unsharded corpus, unknown corpus, wrong method.
  EXPECT_EQ(StatusOf(PostJson(port(), "/corpora/demo/append",
                              R"({"traces": ["a b"]})")),
            400);
  EXPECT_EQ(StatusOf(PostJson(port(), "/corpora/nope/append",
                              R"({"traces": ["a b"]})")),
            404);
  EXPECT_EQ(StatusOf(Get(port(), "/corpora/shards/append")), 405);
  std::remove(path.c_str());
  std::remove((path + ".p1c").c_str());
  for (const char* shard : {".0000.smdb", ".0001.smdb"}) {
    std::remove((::testing::TempDir() + "server_test_append" + shard).c_str());
  }
}

TEST_F(ServerTest, ConnectionsPastTheCapAreShedWith503) {
  ServerOptions options;
  options.port = 0;
  options.max_connections = 1;
  Server capped(&registry_, options);
  ASSERT_TRUE(capped.Start().ok());
  // Occupy the single slot with a live keep-alive connection; its served
  // response proves the connection thread is registered.
  Result<Socket> held = ConnectTcp("127.0.0.1", capped.port());
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held->WriteAll("GET /healthz HTTP/1.1\r\n\r\n").ok());
  char buffer[4096];
  Result<size_t> first = held->Read(buffer, sizeof(buffer));
  ASSERT_TRUE(first.ok());
  ASSERT_GT(*first, 0u);
  // The next connection is shed by the acceptor before any request.
  Result<Socket> shed = ConnectTcp("127.0.0.1", capped.port());
  ASSERT_TRUE(shed.ok());
  std::string response;
  while (true) {
    Result<size_t> n = shed->Read(buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) break;
    response.append(buffer, *n);
  }
  EXPECT_EQ(StatusOf(response), 503);
  capped.Stop();
}

TEST_F(ServerTest, FinishedConnectionThreadsAreReaped) {
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(StatusOf(Get(port(), "/healthz")), 200);
  }
  // Each accept joins the connections that finished before it; keep
  // poking the server until the tracked-thread count collapses (the
  // closed connections above must not linger until Stop()).
  size_t tracked = server_->connection_threads();
  for (int i = 0; i < 200 && tracked > 2; ++i) {
    (void)Get(port(), "/healthz");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tracked = server_->connection_threads();
  }
  EXPECT_LE(tracked, 2u);
}

TEST_F(ServerTest, IdleConnectionsAreClosedAfterTheTimeout) {
  ServerOptions options;
  options.port = 0;
  options.idle_timeout_seconds = 1;
  Server impatient(&registry_, options);
  ASSERT_TRUE(impatient.Start().ok());
  Result<Socket> socket = ConnectTcp("127.0.0.1", impatient.port());
  ASSERT_TRUE(socket.ok());
  // Send nothing: the server must hang up on its own, so this read ends
  // with EOF (or a reset) instead of blocking forever.
  char buffer[64];
  Result<size_t> n = socket->Read(buffer, sizeof(buffer));
  EXPECT_TRUE(!n.ok() || *n == 0);
  impatient.Stop();
}

TEST_F(ServerTest, StopCancelsAnInFlightMineWithoutADeadline) {
  // A pathological corpus — two long sequences of distinct events make
  // full-pattern mining combinatorial (every subsequence is frequent at
  // min_sup 0.5), so the mine cannot finish on its own here; Stop() must
  // cancel it through the registered token rather than wait.
  const std::string path = ::testing::TempDir() + "server_test_explosive.txt";
  {
    std::ofstream out(path);
    for (int i = 0; i < 2; ++i) {
      for (char e = 'a'; e <= 'z'; ++e) out << e << ' ';
      out << '\n';
    }
  }
  CorpusRegistry registry;
  ASSERT_TRUE(registry.Register("explosive", path, CorpusOpenOptions()).ok());
  ServerOptions options;
  options.port = 0;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  Result<Socket> socket = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(socket.ok());
  const std::string body =
      R"({"corpus": "explosive", "full": true, "min_sup": 0.5})";
  ASSERT_TRUE(socket
                  ->WriteAll("POST /mine/patterns HTTP/1.1\r\n"
                             "Content-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body)
                  .ok());
  // Give the mine time to get properly underway, then shut down.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto started = std::chrono::steady_clock::now();
  server.Stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  EXPECT_LT(seconds, 30.0);
  std::remove(path.c_str());
}

TEST_F(ServerTest, ConcurrentColdMinesReportOneMissAndOneHit) {
  // Two requests race into a cold corpus: exactly one pays the index
  // build (a miss) and the other observes the published cache (a hit) —
  // the per-call index_build_seconds signal cannot misattribute the
  // concurrent build the way a global-counter diff could.
  const std::string path = ::testing::TempDir() + "server_test_cold.txt";
  {
    std::ofstream out(path);
    out << "a b c a b c\nc a b a\n";
  }
  CorpusRegistry registry;
  ASSERT_TRUE(registry.Register("cold", path, CorpusOpenOptions()).ok());
  ServerOptions options;
  options.port = 0;
  Server cold(&registry, options);
  ASSERT_TRUE(cold.Start().ok());
  std::thread first([&] {
    EXPECT_EQ(StatusOf(PostJson(cold.port(), "/mine/patterns",
                                R"({"corpus": "cold"})")),
              200);
  });
  std::thread second([&] {
    EXPECT_EQ(StatusOf(PostJson(cold.port(), "/mine/patterns",
                                R"({"corpus": "cold"})")),
              200);
  });
  first.join();
  second.join();
  const std::string body = BodyOf(Get(cold.port(), "/metrics"));
  EXPECT_NE(body.find("specmined_index_cache_misses_total 1"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("specmined_index_cache_hits_total 1"),
            std::string::npos)
      << body;
  cold.Stop();
  std::remove(path.c_str());
}

TEST_F(ServerTest, OversizedBodyIs413) {
  ServerOptions options;
  options.port = 0;
  options.limits.max_body_bytes = 64;
  Server small(&registry_, options);
  ASSERT_TRUE(small.Start().ok());
  std::string big(65, 'x');
  std::string response = PostJson(small.port(), "/mine/patterns", big);
  EXPECT_EQ(StatusOf(response), 413);
  small.Stop();
}

// Launches the real binary (as CI's smoke step does), scrapes the
// ephemeral port, drives one request, and asserts SIGTERM -> exit 0.
TEST(SpecminedBinaryTest, ServesAndExitsZeroOnSigterm) {
  if (access("./specmined", X_OK) != 0) {
    GTEST_SKIP() << "specmined binary not in working directory";
  }
  const std::string traces = ::testing::TempDir() + "specmined_smoke.txt";
  {
    std::ofstream out(traces);
    out << "a b c\na b\n";
  }
  int out_pipe[2];
  ASSERT_EQ(pipe(out_pipe), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    std::string corpus = "demo=" + traces;
    execl("./specmined", "specmined", "--port", "0", "--corpus",
          corpus.c_str(), "--quiet", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(out_pipe[1]);
  // First stdout line: "listening on http://127.0.0.1:PORT".
  std::string banner;
  char c;
  while (read(out_pipe[0], &c, 1) == 1 && c != '\n') banner.push_back(c);
  close(out_pipe[0]);
  size_t colon = banner.rfind(':');
  ASSERT_NE(colon, std::string::npos) << "banner: " << banner;
  const uint16_t port =
      static_cast<uint16_t>(std::atoi(banner.c_str() + colon + 1));
  ASSERT_GT(port, 0) << "banner: " << banner;

  EXPECT_EQ(StatusOf(Get(port, "/healthz")), 200);
  EXPECT_EQ(StatusOf(PostJson(port, "/mine/patterns",
                              R"({"corpus": "demo"})")),
            200);

  kill(pid, SIGTERM);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  std::remove(traces.c_str());
}

}  // namespace
}  // namespace specmine
