// server-sparse: specmined serving kSparseCorpora sparse corpora (auto
// resolves the hybrid backend on each) to load_threads keep-alive client
// connections, each in a closed loop over a fixed, seeded mix of small
// closed-pattern, rule and closed-sequential requests. Every response
// body, *_seconds fields excluded, must equal the in-process json_results
// document.

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "specbench/corpora.h"
#include "specbench/workloads.h"
#include "src/engine/json_results.h"
#include "src/support/json_reader.h"
#include "src/support/net.h"

extern char** environ;

namespace specbench {

using specmine::Engine;
using specmine::Result;
using specmine::RunReport;
using specmine::Status;

namespace {

// Set-up is ~30 ms per corpus, mostly the cold warm-up mines; its median
// over this many server starts is what setup_s reports.
constexpr int kSetupRepetitions = 9;

std::string CorpusName(size_t corpus) {
  return "sparse" + std::to_string(corpus);
}

// ---------------------------------------------------------------------------
// The specmined child process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns \p binary on an ephemeral port and waits for its
  // "listening on http://HOST:PORT" line.
  Status Start(const std::string& binary, size_t max_concurrent) {
    int out[2];
    if (pipe(out) != 0) return Status::IOError("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    const std::string concurrent = std::to_string(max_concurrent);
    std::vector<std::string> args = {binary,         "--port", "0",
                                     "--quiet",      "--max-concurrent",
                                     concurrent,     "--max-queue",
                                     "64"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    if (rc != 0) {
      close(out[0]);
      pid_ = -1;
      return Status::IOError("cannot spawn " + binary + ": " +
                             std::strerror(rc));
    }
    stdout_fd_ = out[0];
    std::string line;
    while (line.find('\n') == std::string::npos) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 10000) <= 0) {
        return Status::IOError("specmined did not report its port");
      }
      char buf[256];
      const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return Status::IOError("specmined exited at start");
      line.append(buf, static_cast<size_t>(n));
    }
    const size_t colon = line.rfind(':');
    if (line.rfind("listening on http://", 0) != 0 ||
        colon == std::string::npos) {
      return Status::IOError("unexpected specmined banner: " + line);
    }
    port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
    return Status::OK();
  }

  // SIGTERM, then waits for the exit; returns the exit status.
  int Stop() {
    int status = -1;
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
    return status;
  }

  int pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// A keep-alive HTTP/1.1 client connection.

class HttpClient {
 public:
  Status Connect(uint16_t port) {
    port_ = port;
    buffer_.clear();
    Result<specmine::Socket> socket = specmine::ConnectTcp("127.0.0.1", port);
    if (!socket.ok()) return socket.status();
    socket_ = std::make_unique<specmine::Socket>(socket.TakeValueOrDie());
    return Status::OK();
  }

  // One round trip; on a transport error the connection is re-opened
  // before the error is returned, so the next call starts clean.
  Status Send(const std::string& method, const std::string& path,
              const std::string& body, int* status, std::string* out) {
    Status sent = RoundTrip(method, path, body, status, out);
    if (sent.ok()) return sent;
    Connect(port_);
    return Status::IOError(method + " " + path + ": " + sent.ToString());
  }

 private:
  Status RoundTrip(const std::string& method, const std::string& path,
                   const std::string& body, int* status, std::string* out) {
    if (socket_ == nullptr) return Status::IOError("not connected");
    std::string request = method + " " + path +
                          " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
    Status written = socket_->WriteAll(request);
    if (!written.ok()) return written;
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      Status read = Fill();
      if (!read.ok()) return read;
    }
    const std::string head = buffer_.substr(0, header_end);
    if (head.size() < 12 || head.compare(0, 9, "HTTP/1.1 ") != 0) {
      return Status::ParseError("bad status line");
    }
    *status = std::atoi(head.c_str() + 9);
    size_t length = 0;
    std::string lower = head;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    const size_t at = lower.find("\r\ncontent-length:");
    if (at != std::string::npos) {
      length = std::strtoull(head.c_str() + at + 17, nullptr, 10);
    }
    const size_t body_start = header_end + 4;
    while (buffer_.size() < body_start + length) {
      Status read = Fill();
      if (!read.ok()) return read;
    }
    out->assign(buffer_, body_start, length);
    buffer_.erase(0, body_start + length);
    return Status::OK();
  }

  Status Fill() {
    char chunk[65536];
    Result<size_t> n = socket_->Read(chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (*n == 0) return Status::IOError("connection closed");
    buffer_.append(chunk, *n);
    return Status::OK();
  }

  uint16_t port_ = 0;
  std::unique_ptr<specmine::Socket> socket_;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// The request mix.

enum class Kind { kClosedPatterns, kRules, kClosedSequential };

struct Template {
  Kind kind;
  const char* route;
  double threshold;   // min_sup / min_ssup.
  const char* span;   // Layer span of the server-side mine.
  std::string body;   // Request body.
  std::string expected;  // In-process document, *_seconds lines removed.
};

std::vector<Template> MakeTemplates(size_t corpus) {
  auto body = [corpus](Kind kind, double threshold) {
    std::ostringstream out;
    out << "{\"corpus\": \"" << CorpusName(corpus) << "\", ";
    switch (kind) {
      case Kind::kClosedPatterns:
        out << "\"min_sup\": " << threshold << ", \"threads\": 1}";
        break;
      case Kind::kRules:
        out << "\"min_ssup\": " << threshold << ", \"min_conf\": "
            << kSparseRulesMinConf << ", \"threads\": 1}";
        break;
      case Kind::kClosedSequential:
        out << "\"min_sup\": " << threshold << ", \"closed\": true}";
        break;
    }
    return out.str();
  };
  std::vector<Template> out;
  out.push_back({Kind::kClosedPatterns, "/mine/patterns", kSparsePatternsMinSup,
                 "itermine.closed",
                 body(Kind::kClosedPatterns, kSparsePatternsMinSup), ""});
  out.push_back({Kind::kRules, "/mine/rules", kSparseRulesMinSsup,
                 "rulemine.rules", body(Kind::kRules, kSparseRulesMinSsup), ""});
  out.push_back({Kind::kClosedSequential, "/mine/seq", kSparseSeqMinSup,
                 "seqmine.closed",
                 body(Kind::kClosedSequential, kSparseSeqMinSup), ""});
  return out;
}

std::string StripSeconds(const std::string& doc) {
  std::string out;
  out.reserve(doc.size());
  size_t start = 0;
  while (start < doc.size()) {
    size_t end = doc.find('\n', start);
    if (end == std::string::npos) end = doc.size() - 1;
    const std::string_view line(doc.data() + start, end - start + 1);
    if (line.find("_seconds\":") == std::string_view::npos) out.append(line);
    start = end + 1;
  }
  return out;
}

// Mines \p t in process exactly as the server's handler does and renders
// the shared json_results document; *serialize_ms gets the render time.
Result<std::string> InProcessDocument(const Engine& engine, const Template& t,
                                      double* serialize_ms) {
  RunReport report;
  std::string doc;
  if (t.kind == Kind::kRules) {
    specmine::RulesTask task;
    task.options.min_s_support = engine.AbsoluteSupport(t.threshold);
    task.options.min_confidence = kSparseRulesMinConf;
    task.options.num_threads = 1;
    Result<specmine::RuleSet> rules = engine.CollectRules(task, &report);
    if (!rules.ok()) return rules.status();
    specmine::RuleSet sorted = rules.TakeValueOrDie();
    sorted.SortByQuality();
    const Clock::time_point start = Clock::now();
    doc = specmine::RulesResultToJson(report, sorted, engine.dictionary());
    *serialize_ms = SecondsSince(start) * 1e3;
    return doc;
  }
  Result<specmine::PatternSet> patterns = specmine::PatternSet();
  if (t.kind == Kind::kClosedPatterns) {
    specmine::ClosedTask task;
    task.options.min_support = engine.AbsoluteSupport(t.threshold);
    task.options.num_threads = 1;
    patterns = engine.CollectPatterns(task, &report);
  } else {
    specmine::ClosedSequentialTask task;
    task.options.min_support = engine.AbsoluteSupport(t.threshold);
    patterns = engine.CollectPatterns(task, &report);
  }
  if (!patterns.ok()) return patterns.status();
  specmine::PatternSet sorted = patterns.TakeValueOrDie();
  sorted.SortBySupport();
  const Clock::time_point start = Clock::now();
  doc = specmine::PatternsResultToJson(report, sorted, engine.dictionary());
  *serialize_ms = SecondsSince(start) * 1e3;
  return doc;
}

// The report fields of a mine response the per-layer metrics need.
struct ResponseReport {
  double mine_seconds = 0.0;
  double index_build_seconds = 0.0;
  double counters[6] = {};  // nodes, patterns, pruned, premises, cands, rules.
};

// Parses only the leading "report" object (the writer's layout puts it
// first, closed by a two-space-indented brace), so tracing does not pay
// for parsing the whole result list.
ResponseReport ParseReport(const std::string& body) {
  ResponseReport out;
  const size_t begin = body.find("\"report\": {");
  const size_t end = body.find("\n  }", begin);
  if (begin == std::string::npos || end == std::string::npos) return out;
  Result<specmine::JsonValue> report = specmine::ParseJson(
      std::string_view(body).substr(begin + 10, end + 4 - (begin + 10)));
  if (!report.ok()) return out;
  auto number = [&](const char* key) {
    const specmine::JsonValue* v = report->Find(key);
    return v != nullptr && v->is_number() ? v->AsDouble() : 0.0;
  };
  out.mine_seconds = number("mine_seconds");
  out.index_build_seconds = number("index_build_seconds");
  const char* keys[6] = {"nodes_visited",       "patterns_emitted",
                         "subtrees_pruned",     "premises_enumerated",
                         "candidate_rules",     "rules_emitted"};
  for (int i = 0; i < 6; ++i) out.counters[i] = number(keys[i]);
  return out;
}

// Sums a /metrics series over every mining route ("/mine/...").
struct MetricsSnapshot {
  double duration_sum = 0.0;
  double duration_count = 0.0;
  double rejected = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
};

// Scrapes on a fresh connection: a kept one may have idled out.
Status Scrape(uint16_t port, MetricsSnapshot* out) {
  HttpClient client;
  int status = 0;
  std::string text;
  Status sent = client.Connect(port);
  if (sent.ok()) sent = client.Send("GET", "/metrics", "", &status, &text);
  if (!sent.ok()) return sent;
  if (status != 200) return Status::IOError("/metrics answered " +
                                            std::to_string(status));
  std::istringstream lines(text);
  std::string line;
  auto value = [&]() {
    return std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  };
  const std::string mine_route = "{route=\"/mine/";
  while (std::getline(lines, line)) {
    if (line.rfind("specmined_request_duration_seconds_sum" + mine_route, 0) ==
        0) {
      out->duration_sum += value();
    } else if (line.rfind("specmined_request_duration_seconds_count" +
                              mine_route,
                          0) == 0) {
      out->duration_count += value();
    } else if (line.rfind("specmined_admission_rejected_total ", 0) == 0) {
      out->rejected = value();
    } else if (line.rfind("specmined_index_cache_hits_total ", 0) == 0) {
      out->cache_hits = value();
    } else if (line.rfind("specmined_index_cache_misses_total ", 0) == 0) {
      out->cache_misses = value();
    }
  }
  return Status::OK();
}

std::string AbsolutePath(const std::string& path) {
  char resolved[PATH_MAX];
  return realpath(path.c_str(), resolved) != nullptr ? resolved : path;
}

}  // namespace

Status RunServerSparse(const RunConfig& config, Tracer& tracer,
                       PhaseResult* result) {
  auto smdb = [&](size_t k) {
    return config.work_dir + "/sparse." + std::to_string(k) + ".smdb";
  };

  // Expected documents, from an in-process session on each packed corpus
  // (outside set-up: this is the benchmark's reference, not work the
  // server does).
  std::vector<Template> templates;
  CorpusShape& shape = result->shape;
  shape.generator = std::to_string(kSparseCorpora) + " x " +
                    SparseParams(config.seed).Label();
  Assertion hybrid{"auto backend resolves hybrid", true, ""};
  for (size_t k = 0; k < kSparseCorpora; ++k) {
    Status packed = PackSmdb(SparseFile(config.work_dir, k), smdb(k));
    if (!packed.ok()) return packed;
    Result<Engine> engine = Engine::FromBinaryFile(smdb(k));
    if (!engine.ok()) return engine.status();
    const std::string backend =
        engine->backend(specmine::BackendChoice::kAuto).name();
    const CorpusShape one = ShapeOf(engine->database(), "");
    shape.sequences += one.sequences;
    shape.events += one.events;
    shape.distinct_events += one.distinct_events;
    hybrid.ok &= one.auto_backend == "hybrid" && backend == "hybrid";
    hybrid.detail += (k == 0 ? "" : "; ") + std::string("corpus ") +
                     std::to_string(k) + ": chooser " + one.auto_backend +
                     ", session " + backend;
    for (Template& t : MakeTemplates(k)) {
      double serialize_ms = 0.0;
      Result<std::string> doc = InProcessDocument(*engine, t, &serialize_ms);
      if (!doc.ok()) return doc.status();
      t.expected = StripSeconds(*doc);
      // The render alone, on the same results the server serializes.
      tracer.Count("engine.serialize_ms", serialize_ms);
      tracer.Count("engine.response_bytes", static_cast<double>(doc->size()));
      templates.push_back(std::move(t));
    }
  }
  shape.mean_occurrences = static_cast<double>(shape.events) /
                           static_cast<double>(shape.distinct_events);
  shape.auto_backend = hybrid.ok ? "hybrid" : "mixed";
  result->assertions.push_back(hybrid);

  // Set-up: pack, start the server, register the corpora, and send each
  // request once (the cold index builds). Repeated so setup_s is a median;
  // the last server stays up for the timed phase.
  ServerProcess server;
  HttpClient control;
  auto check = [&](const Template& t, int status, const std::string& body) {
    return status == 200 && StripSeconds(body) == t.expected;
  };
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    server.Stop();
    const uint64_t written_before = WrittenBytes();
    const Clock::time_point start = Clock::now();
    Status status;
    for (size_t k = 0; k < kSparseCorpora && status.ok(); ++k) {
      const uint64_t pack_before = WrittenBytes();
      {
        ScopedSpan span(tracer, "trace.pack", -1);
        status = PackSmdb(SparseFile(config.work_dir, k), smdb(k));
      }
      tracer.Count("trace.bytes_written",
                   static_cast<double>(WrittenBytes() - pack_before));
    }
    if (!status.ok()) return status;
    result->write_bytes_per_event =
        static_cast<double>(WrittenBytes() - written_before) /
        static_cast<double>(shape.events);
    {
      ScopedSpan span(tracer, "server.start", -1);
      status = server.Start(config.server_binary, config.load_threads);
      if (status.ok()) status = control.Connect(server.port());
    }
    if (!status.ok()) return status;
    int http = 0;
    std::string body;
    for (size_t k = 0; k < kSparseCorpora; ++k) {
      {
        ScopedSpan span(tracer, "trace.open", -1);
        status = control.Send("POST", "/corpora",
                              "{\"name\": \"" + CorpusName(k) +
                                  "\", \"path\": \"" +
                                  AbsolutePath(smdb(k)) + "\"}",
                              &http, &body);
      }
      if (!status.ok()) return status;
      if (http != 201) return Status::IOError("register answered " + body);
    }
    const double rss_before = CurrentRssMb(server.pid());
    for (const Template& t : templates) {
      ScopedSpan span(tracer, "server.warmup", -1);
      status = control.Send("POST", t.route, t.body, &http, &body);
      if (!status.ok()) return status;
      ++result->attempted;
      if (!check(t, http, body)) ++result->failed;
      const ResponseReport report = ParseReport(body);
      if (report.index_build_seconds > 0.0) {
        tracer.AddChild("itermine.index_build", span.id(),
                        report.index_build_seconds);
      }
    }
    tracer.Count("itermine.index_rss_mb",
                 CurrentRssMb(server.pid()) - rss_before);
    result->setup_s.push_back(SecondsSince(start));
  }

  MetricsSnapshot before, after;
  Status scraped = Scrape(server.port(), &before);
  if (!scraped.ok()) return scraped;

  // Timed phase: load_threads closed-loop clients.
  std::atomic<size_t> completed{0};
  std::atomic<uint64_t> attempted{0}, failed{0};
  std::vector<std::vector<double>> latencies(config.load_threads);
  result->load_threads = config.load_threads;
  const Clock::time_point start = Clock::now();
  auto client_loop = [&](size_t c) {
    HttpClient client;
    if (!client.Connect(server.port()).ok()) {
      failed.fetch_add(1);
      attempted.fetch_add(1);
      return;
    }
    std::mt19937_64 rng(config.seed * 1000003 + c);
    std::uniform_int_distribution<size_t> pick(0, templates.size() - 1);
    std::string body;
    while (true) {
      const double elapsed = SecondsSince(start);
      if (elapsed >= config.max_seconds) break;
      if (elapsed >= config.seconds && completed.load() >= kMinOperations) {
        break;
      }
      const Template& t = templates[pick(rng)];
      const int64_t op = static_cast<int64_t>(attempted.fetch_add(1));
      int http = 0;
      const Clock::time_point op_start = Clock::now();
      Status sent;
      {
        ScopedSpan span(tracer, "server.request", op);
        sent = client.Send("POST", t.route, t.body, &http, &body);
        if (tracer.enabled() && sent.ok()) {
          const ResponseReport report = ParseReport(body);
          tracer.AddChild(t.span, span.id(), report.mine_seconds);
          const char* names[6] = {
              "itermine.nodes_visited", "itermine.patterns_emitted",
              "itermine.subtrees_pruned", "rulemine.premises",
              "rulemine.candidates", "rulemine.rules_emitted"};
          const int first = t.kind == Kind::kRules ? 3 : 0;
          if (t.kind != Kind::kClosedSequential) {
            for (int i = first; i < first + 3; ++i) {
              tracer.Count(names[i], report.counters[i]);
            }
          }
        }
      }
      latencies[c].push_back(SecondsSince(op_start));
      completed.fetch_add(1);
      if (!sent.ok() || !check(t, http, body)) failed.fetch_add(1);
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < config.load_threads; ++c) {
    clients.emplace_back(client_loop, c);
  }
  for (std::thread& t : clients) t.join();
  result->timed_seconds = SecondsSince(start);
  result->attempted += attempted.load();
  result->failed += failed.load();
  for (const std::vector<double>& per_client : latencies) {
    result->latencies_s.insert(result->latencies_s.end(), per_client.begin(),
                               per_client.end());
  }

  scraped = Scrape(server.port(), &after);
  if (!scraped.ok()) return scraped;
  const double requests = after.duration_count - before.duration_count;
  const double server_ms =
      requests > 0 ? (after.duration_sum - before.duration_sum) / requests * 1e3
                   : 0.0;
  tracer.Count("server.request_ms", server_ms);
  tracer.Count("server.client_gap_ms",
               Mean(result->latencies_s) * 1e3 - server_ms);
  tracer.Count("server.admission_rejected", after.rejected - before.rejected);
  tracer.Count("server.index_cache_hits", after.cache_hits - before.cache_hits);
  tracer.Count("server.index_cache_misses",
               after.cache_misses - before.cache_misses);

  result->peak_rss_mb = PeakRssMb(server.pid());
  const int exit_status = server.Stop();
  result->assertions.push_back(
      {"server exits 0 on SIGTERM",
       WIFEXITED(exit_status) && WEXITSTATUS(exit_status) == 0,
       "wait status " + std::to_string(exit_status)});
  return Status::OK();
}

}  // namespace specbench
