#include "src/server/server.h"

#include <sys/socket.h>

#include <chrono>
#include <ctime>
#include <optional>
#include <utility>

#include "src/engine/json_results.h"
#include "src/support/cancel.h"
#include "src/trace/append_session.h"
#include "src/support/json_reader.h"
#include "src/support/json_writer.h"
#include "src/support/version.h"

namespace specmine {

namespace {

HttpResponse ErrorResponse(const Status& status) {
  HttpResponse response;
  response.status = StatusToHttp(status.code());
  JsonWriter writer(&response.body);
  writer.BeginObject();
  writer.Key("error").BeginObject();
  writer.Field("status", StatusCodeName(status.code()));
  writer.Field("http", static_cast<int64_t>(response.status));
  writer.Field("message", status.message());
  writer.EndObject();
  writer.EndObject();
  writer.Finish();
  return response;
}

HttpResponse SimpleError(int http_status, std::string_view message) {
  HttpResponse response;
  response.status = http_status;
  JsonWriter writer(&response.body);
  writer.BeginObject();
  writer.Key("error").BeginObject();
  writer.Field("status", "Http");
  writer.Field("http", static_cast<int64_t>(http_status));
  writer.Field("message", message);
  writer.EndObject();
  writer.EndObject();
  writer.Finish();
  return response;
}

HttpResponse JsonOk(std::string body, int status = 200) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

// Decodes the fields shared by every mining request body.
struct MineCommon {
  std::string corpus;
  BackendChoice backend = BackendChoice::kAuto;
  uint64_t timeout_ms = 0;  // 0 = none.
};

Status DecodeBackend(const JsonValue& body, BackendChoice* out) {
  std::string value = "auto";
  Status status = body.GetString("backend", &value);
  if (!status.ok()) return status;
  const std::optional<BackendChoice> choice = ParseBackendChoice(value);
  if (!choice) {
    return Status::InvalidArgument(
        "field 'backend' must be auto, bitmap or hybrid (got '" + value +
        "')");
  }
  *out = *choice;
  return Status::OK();
}

Status DecodeCommon(const JsonValue& body, MineCommon* out) {
  Status status = body.GetString("corpus", &out->corpus);
  if (!status.ok()) return status;
  if (out->corpus.empty()) {
    return Status::InvalidArgument("field 'corpus' is required");
  }
  status = DecodeBackend(body, &out->backend);
  if (!status.ok()) return status;
  return body.GetUint("timeout_ms", &out->timeout_ms);
}

// Arms \p token's deadline when the request carried a timeout, mirroring
// the CLI's --timeout-ms. The token itself is always handed to the miner
// (unarmed it never fires on its own) so that Stop() can cancel a mine
// that carried no deadline.
const CancelToken* ArmTimeout(const MineCommon& common, CancelToken* token) {
  if (common.timeout_ms != 0) {
    token->SetDeadline(std::chrono::milliseconds(common.timeout_ms));
  }
  return token;
}

std::string NowIso8601() {
  using std::chrono::system_clock;
  std::time_t now = system_clock::to_time_t(system_clock::now());
  std::tm tm_utc;
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace

Server::Server(CorpusRegistry* corpora, ServerOptions options)
    : corpora_(corpora),
      options_(std::move(options)),
      admission_(options_.admission) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  Result<Listener> listener = Listener::Listen(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = listener.TakeValueOrDie();
  port_ = listener_.port();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  admission_.Shutdown();
  listener_.Shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Stop the CPU-bound work first: a mine with no deadline would
    // otherwise block its connection thread (and this join) forever.
    for (CancelToken* token : active_mines_) token->Cancel();
    // Unblock every connection thread parked in a socket read; the
    // threads observe stopping_ and exit their serve loops.
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    for (auto& [id, thread] : connections_) {
      connections.push_back(std::move(thread));
    }
    connections_.clear();
    for (std::thread& thread : finished_) {
      connections.push_back(std::move(thread));
    }
    finished_.clear();
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
}

size_t Server::connection_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_.size() + finished_.size();
}

void Server::ReapFinished() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished.swap(finished_);
  }
  // These threads have already moved their handle here from their own
  // epilogue, so each join returns (almost) immediately.
  for (std::thread& t : finished) t.join();
}

Server::MineRegistration::MineRegistration(Server* server, CancelToken* token)
    : server_(server), token_(token) {
  std::lock_guard<std::mutex> lock(server_->mu_);
  server_->active_mines_.insert(token_);
  // A mine slipping in after Stop() swept active_mines_ must not run.
  if (server_->stopping_.load(std::memory_order_acquire)) token_->Cancel();
}

Server::MineRegistration::~MineRegistration() {
  std::lock_guard<std::mutex> lock(server_->mu_);
  server_->active_mines_.erase(token_);
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<Socket> accepted = listener_.Accept();
    // Join whatever connections finished since the last accept, so a
    // long-lived server never accumulates exited threads.
    ReapFinished();
    if (!accepted.ok()) {
      // Shutdown() fails the pending accept; anything else (e.g. EMFILE)
      // is transient — keep accepting unless we are stopping.
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;
    }
    Socket socket = accepted.TakeValueOrDie();
    if (options_.idle_timeout_seconds != 0) {
      socket.SetReadTimeout(options_.idle_timeout_seconds);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (connections_.size() >= options_.max_connections) {
      // Shed in-line, never spawning past the cap (the tiny response
      // fits the socket send buffer, so this cannot stall the acceptor).
      HttpResponse response =
          SimpleError(503, "connection limit reached; retry later");
      metrics_.RecordRequest("other", response.status, 0.0);
      (void)socket.WriteAll(response.Serialize(/*keep_alive=*/false));
      continue;  // `socket` closes as it goes out of scope.
    }
    const uint64_t id = next_connection_id_++;
    live_fds_.insert(socket.fd());
    connections_[id] = std::thread(
        [this, id, s = std::move(socket)]() mutable {
          ServeConnection(id, std::move(s));
        });
  }
  ReapFinished();
}

void Server::ServeConnection(uint64_t id, Socket socket) {
  const int fd = socket.fd();
  HttpRequestParser parser(options_.limits);
  std::string pending;  // Bytes read but not yet consumed (pipelining).
  char buffer[16 * 1024];

  bool keep_alive = true;
  while (keep_alive && !stopping_.load(std::memory_order_acquire)) {
    // Feed buffered bytes first, then read more as needed.
    HttpRequestParser::State state = HttpRequestParser::State::kNeedMore;
    while (true) {
      if (!pending.empty()) {
        size_t consumed = 0;
        state = parser.Feed(pending, &consumed);
        pending.erase(0, consumed);
        if (state != HttpRequestParser::State::kNeedMore) break;
      }
      Result<size_t> n = socket.Read(buffer, sizeof(buffer));
      if (!n.ok() || *n == 0) {
        state = HttpRequestParser::State::kNeedMore;
        keep_alive = false;  // Peer closed or connection broke.
        break;
      }
      pending.append(buffer, *n);
    }
    if (!keep_alive && state == HttpRequestParser::State::kNeedMore) break;

    if (state == HttpRequestParser::State::kError) {
      HttpResponse response =
          SimpleError(parser.error_status(), parser.error());
      metrics_.RecordRequest("other", response.status, 0.0);
      (void)socket.WriteAll(response.Serialize(/*keep_alive=*/false));
      break;  // Framing is unrecoverable after a parse error.
    }

    const HttpRequest& request = parser.request();
    keep_alive = request.KeepAlive();

    metrics_.RequestStarted();
    const auto started = std::chrono::steady_clock::now();
    std::string route_label;
    HttpResponse response = Route(request, &route_label);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    metrics_.RequestFinished();
    metrics_.RecordRequest(route_label, response.status, seconds);
    LogRequest(request, response, seconds);

    if (!socket.WriteAll(response.Serialize(keep_alive)).ok()) break;
    parser.Reset();
  }

  // Deregister before closing so Stop() can never shutdown() a reused
  // descriptor number, and hand this thread's own handle to the reap
  // list — the acceptor (or Stop()) joins it, releasing the stack.
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_fds_.erase(fd);
    auto it = connections_.find(id);
    if (it != connections_.end()) {
      finished_.push_back(std::move(it->second));
      connections_.erase(it);
    }
    // Not found: Stop() already moved the handle and will join it.
  }
  socket.Close();
}

HttpResponse Server::Route(const HttpRequest& request,
                           std::string* route_label) {
  const std::string path = request.Path();
  *route_label = "other";
  if (path == "/healthz") {
    *route_label = path;
    if (request.method != "GET") return SimpleError(405, "use GET");
    return HandleHealthz();
  }
  if (path == "/metrics") {
    *route_label = path;
    if (request.method != "GET") return SimpleError(405, "use GET");
    return HandleMetrics();
  }
  if (path == "/corpora") {
    *route_label = path;
    if (request.method == "GET") return HandleListCorpora();
    if (request.method == "POST") return HandleRegisterCorpus(request);
    return SimpleError(405, "use GET or POST");
  }
  constexpr std::string_view kCorporaPrefix = "/corpora/";
  constexpr std::string_view kAppendSuffix = "/append";
  if (path.size() > kCorporaPrefix.size() + kAppendSuffix.size() &&
      path.compare(0, kCorporaPrefix.size(), kCorporaPrefix) == 0 &&
      path.compare(path.size() - kAppendSuffix.size(), kAppendSuffix.size(),
                   kAppendSuffix) == 0) {
    // Bounded-cardinality label: the corpus name stays out of it.
    *route_label = "/corpora/{name}/append";
    if (request.method != "POST") return SimpleError(405, "use POST");
    const std::string name =
        path.substr(kCorporaPrefix.size(),
                    path.size() - kCorporaPrefix.size() - kAppendSuffix.size());
    return HandleAppendCorpus(name, request);
  }
  if (path == "/mine/patterns" || path == "/mine/rules" ||
      path == "/mine/seq" || path == "/mine/episodes" ||
      path == "/mine/pairs") {
    *route_label = path;
    if (request.method != "POST") return SimpleError(405, "use POST");
    return HandleMine(path, request);
  }
  return SimpleError(404, "no route for '" + path + "'");
}

HttpResponse Server::HandleHealthz() const {
  std::string body;
  JsonWriter writer(&body);
  writer.BeginObject();
  writer.Field("status", "ok");
  writer.Field("version", VersionString());
  writer.Field("revision", GitRevision());
  writer.Field("corpora", static_cast<uint64_t>(corpora_->size()));
  writer.EndObject();
  writer.Finish();
  return JsonOk(std::move(body));
}

HttpResponse Server::HandleMetrics() const {
  ScrapeGauges gauges;
  gauges.mines_in_flight = admission_.in_flight();
  gauges.mine_queue_depth = admission_.queue_depth();
  gauges.corpora = corpora_->size();
  gauges.quarantined_shards = corpora_->quarantined_shards();
  for (const CorpusInfo& info : corpora_->List()) {
    gauges.corpus_generations.emplace_back(info.name, info.generation);
  }
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = metrics_.Render(gauges);
  return response;
}

HttpResponse Server::HandleListCorpora() const {
  std::string body;
  JsonWriter writer(&body);
  writer.BeginObject();
  writer.Key("corpora").BeginArray();
  for (const CorpusInfo& info : corpora_->List()) {
    writer.BeginObject();
    writer.Field("name", info.name);
    writer.Field("path", info.path);
    writer.Field("sequences", info.sequences);
    writer.Field("events", info.events);
    writer.Field("distinct_events", info.distinct_events);
    writer.Field("shards", info.shards);
    writer.Field("quarantined_shards", info.quarantined_shards);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  writer.Finish();
  return JsonOk(std::move(body));
}

HttpResponse Server::HandleRegisterCorpus(const HttpRequest& request) const {
  Result<JsonValue> body = ParseJson(request.body);
  if (!body.ok()) return ErrorResponse(body.status());
  std::string name, path, integrity = "header";
  bool quarantine = false;
  Status status = body->GetString("name", &name);
  if (status.ok()) status = body->GetString("path", &path);
  if (status.ok()) status = body->GetString("integrity", &integrity);
  if (status.ok()) status = body->GetBool("quarantine", &quarantine);
  if (!status.ok()) return ErrorResponse(status);
  if (name.empty() || path.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("fields 'name' and 'path' are required"));
  }
  CorpusOpenOptions options;
  options.quarantine = quarantine;
  if (integrity == "off") {
    options.integrity = IntegrityMode::kOff;
  } else if (integrity == "header" || integrity.empty()) {
    options.integrity = IntegrityMode::kHeader;
  } else if (integrity == "full") {
    options.integrity = IntegrityMode::kFull;
  } else {
    return ErrorResponse(Status::InvalidArgument(
        "field 'integrity' must be off, header or full (got '" + integrity +
        "')"));
  }
  status = corpora_->Register(name, path, options);
  if (!status.ok()) return ErrorResponse(status);

  std::string out;
  JsonWriter writer(&out);
  writer.BeginObject();
  writer.Field("registered", name);
  writer.Field("path", path);
  writer.EndObject();
  writer.Finish();
  return JsonOk(std::move(out), 201);
}

HttpResponse Server::HandleAppendCorpus(const std::string& name,
                                        const HttpRequest& request) {
  // Appends share the mines' admission gate: they are real IO + commit
  // work and must not be free under load.
  AdmissionPermit permit(&admission_);
  if (!permit.admitted()) {
    metrics_.RecordRejected();
    HttpResponse response =
        SimpleError(429, "mining capacity exhausted; retry later");
    response.headers.emplace_back(
        "Retry-After", std::to_string(admission_.retry_after_seconds()));
    return response;
  }

  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const JsonValue* traces = parsed->Find("traces");
  if (traces == nullptr || !traces->is_array()) {
    return ErrorResponse(Status::InvalidArgument(
        "field 'traces' (array of space-separated event-name strings) is "
        "required"));
  }
  uint64_t shard_bytes = 0;
  bool seal = false;
  Status status = parsed->GetUint("shard_bytes", &shard_bytes);
  if (status.ok()) status = parsed->GetBool("seal", &seal);
  if (!status.ok()) return ErrorResponse(status);

  const std::string path = corpora_->PathOf(name);
  if (path.empty()) {
    return ErrorResponse(Status::NotFound("no corpus named '" + name + "'"));
  }
  if (!IsSmdbSetPath(path)) {
    return ErrorResponse(Status::InvalidArgument(
        "corpus '" + name + "' is not a sharded .smdbset corpus (append "
        "requires one; repack with 'specmine pack ... out.smdbset')"));
  }

  uint64_t generation = 0;
  uint64_t appended = 0;
  {
    // One append at a time: AppendSession assumes a single writer per set.
    std::lock_guard<std::mutex> lock(append_mu_);
    AppendOptions options;
    if (shard_bytes != 0) options.writer.shard_bytes = shard_bytes;
    Result<AppendSession> opened = AppendSession::Open(path, options);
    if (!opened.ok()) return ErrorResponse(opened.status());
    AppendSession session = opened.TakeValueOrDie();
    for (const JsonValue& line : traces->AsArray()) {
      if (!line.is_string()) {
        return ErrorResponse(Status::InvalidArgument(
            "field 'traces' must contain only strings"));
      }
      Status added = session.AddTraceFromString(line.AsString());
      if (!added.ok()) return ErrorResponse(added);
    }
    if (seal) {
      Status sealed = session.Seal();
      if (!sealed.ok()) return ErrorResponse(sealed);
    }
    Status committed = session.Commit();
    if (!committed.ok()) return ErrorResponse(committed);
    generation = session.committed_generation();
    appended = session.appended_sequences();
  }

  // Swap the fresh generation in; mines already running keep their old
  // session alive through their shared_ptr.
  Status reopened = corpora_->Reopen(name);
  if (!reopened.ok()) return ErrorResponse(reopened);
  metrics_.RecordAppend(appended);

  std::shared_ptr<const Engine> engine = corpora_->Find(name);
  std::string out;
  JsonWriter writer(&out);
  writer.BeginObject();
  writer.Field("corpus", name);
  writer.Field("appended", appended);
  writer.Field("generation", generation);
  if (engine != nullptr) {
    writer.Field("sequences", static_cast<uint64_t>(engine->num_sequences()));
    if (engine->sharded()) {
      writer.Field("shards",
                   static_cast<uint64_t>(engine->shard_set().num_shards()));
    }
  }
  writer.EndObject();
  writer.Finish();
  return JsonOk(std::move(out));
}

HttpResponse Server::HandleMine(const std::string& path,
                                const HttpRequest& request) {
  AdmissionPermit permit(&admission_);
  if (!permit.admitted()) {
    metrics_.RecordRejected();
    HttpResponse response =
        SimpleError(429, "mining capacity exhausted; retry later");
    response.headers.emplace_back(
        "Retry-After", std::to_string(admission_.retry_after_seconds()));
    return response;
  }

  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const JsonValue& body = *parsed;
  MineCommon common;
  Status status = DecodeCommon(body, &common);
  if (!status.ok()) return ErrorResponse(status);
  std::shared_ptr<const Engine> engine = corpora_->Find(common.corpus);
  if (engine == nullptr) {
    return ErrorResponse(
        Status::NotFound("no corpus named '" + common.corpus + "'"));
  }
  // dictionary(), not database(): mining a sharded corpus must not
  // materialize its merged arena just to render event names.
  const EventDictionary& dict = engine->dictionary();
  CancelToken token;
  MineRegistration registration(this, &token);  // Stop() cancels us.
  const CancelToken* cancel = ArmTimeout(common, &token);

  // Index-cache accounting: report.index_build_seconds is non-zero only
  // for the call that actually paid a build, so it is a per-call signal —
  // unlike a diff of the global index_builds() counter, it cannot
  // misattribute a concurrent request's build to this one.
  const auto record = [&](const RunReport& report, uint64_t patterns,
                          uint64_t rules) {
    std::optional<bool> hit;
    if (!report.backend.empty()) {
      hit = report.index_build_seconds == 0.0;
    }
    metrics_.RecordMine(report.backend, hit, patterns, rules);
  };

  if (path == "/mine/patterns") {
    double min_sup = 0.5;
    uint64_t max_len = 0, threads = 0;
    bool full = false, generators = false;
    status = body.GetDouble("min_sup", &min_sup);
    if (status.ok()) status = body.GetUint("max_len", &max_len);
    if (status.ok()) status = body.GetUint("threads", &threads);
    if (status.ok()) status = body.GetBool("full", &full);
    if (status.ok()) status = body.GetBool("generators", &generators);
    if (!status.ok()) return ErrorResponse(status);
    const uint64_t min_support = engine->AbsoluteSupport(min_sup);
    RunReport report;
    Result<PatternSet> mined = [&]() -> Result<PatternSet> {
      if (generators) {
        GeneratorsTask task;
        task.options.min_support = min_support;
        task.options.max_length = max_len;
        task.options.num_threads = threads;
        task.options.backend = common.backend;
        task.options.cancel = cancel;
        return engine->CollectPatterns(task, &report);
      }
      FullPatternsTask full_task;
      full_task.options.min_support = min_support;
      full_task.options.max_length = max_len;
      full_task.options.num_threads = threads;
      full_task.options.backend = common.backend;
      full_task.options.cancel = cancel;
      if (full) {
        if (engine->sharded()) {
          // The parallel per-shard path (byte-identical output by the
          // sharded-equivalence contract) — same dispatch as the CLI.
          CollectingPatternSink sink;
          Result<RunReport> run = engine->MineSharded(full_task, sink);
          if (!run.ok()) return run.status();
          report = *run;
          return sink.TakeSet();
        }
        return engine->CollectPatterns(full_task, &report);
      }
      ClosedTask task;
      task.options.min_support = min_support;
      task.options.max_length = max_len;
      task.options.num_threads = threads;
      task.options.backend = common.backend;
      task.options.cancel = cancel;
      return engine->CollectPatterns(task, &report);
    }();
    if (!mined.ok()) return ErrorResponse(mined.status());
    PatternSet patterns = mined.TakeValueOrDie();
    patterns.SortBySupport();
    record(report, patterns.size(), 0);
    return JsonOk(PatternsResultToJson(report, patterns, dict));
  }

  if (path == "/mine/rules") {
    RulesTask task;
    double min_ssup = 0.5, min_conf = 0.9;
    uint64_t min_isup = 1, max_pre = 0, max_post = 0, threads = 0;
    bool full = false, backward = false;
    status = body.GetDouble("min_ssup", &min_ssup);
    if (status.ok()) status = body.GetDouble("min_conf", &min_conf);
    if (status.ok()) status = body.GetUint("min_isup", &min_isup);
    if (status.ok()) status = body.GetUint("max_pre", &max_pre);
    if (status.ok()) status = body.GetUint("max_post", &max_post);
    if (status.ok()) status = body.GetUint("threads", &threads);
    if (status.ok()) status = body.GetBool("full", &full);
    if (status.ok()) status = body.GetBool("backward", &backward);
    if (!status.ok()) return ErrorResponse(status);
    task.options.min_s_support = engine->AbsoluteSupport(min_ssup);
    task.options.min_confidence = min_conf;
    task.options.min_i_support = min_isup;
    task.options.non_redundant = !full;
    task.options.max_premise_length = max_pre;
    task.options.max_consequent_length = max_post;
    task.options.num_threads = threads;
    task.options.backend = common.backend;
    task.options.cancel = cancel;
    task.backward = backward;
    RunReport report;
    Result<RuleSet> mined = engine->CollectRules(task, &report);
    if (!mined.ok()) return ErrorResponse(mined.status());
    RuleSet rules = mined.TakeValueOrDie();
    rules.SortByQuality();
    record(report, 0, rules.size());
    return JsonOk(RulesResultToJson(report, rules, dict));
  }

  if (path == "/mine/seq") {
    double min_sup = 0.5;
    uint64_t max_len = 0;
    bool closed = false, generators = false;
    status = body.GetDouble("min_sup", &min_sup);
    if (status.ok()) status = body.GetUint("max_len", &max_len);
    if (status.ok()) status = body.GetBool("closed", &closed);
    if (status.ok()) status = body.GetBool("generators", &generators);
    if (!status.ok()) return ErrorResponse(status);
    const uint64_t min_support = engine->AbsoluteSupport(min_sup);
    RunReport report;
    Result<PatternSet> mined = [&]() -> Result<PatternSet> {
      if (generators) {
        SequentialGeneratorsTask task;
        task.options.min_support = min_support;
        task.options.max_length = max_len;
        task.options.cancel = cancel;
        return engine->CollectPatterns(task, &report);
      }
      if (closed) {
        ClosedSequentialTask task;
        task.options.min_support = min_support;
        task.options.max_length = max_len;
        task.options.cancel = cancel;
        return engine->CollectPatterns(task, &report);
      }
      SequentialTask task;
      task.options.min_support = min_support;
      task.options.max_length = max_len;
      task.options.cancel = cancel;
      return engine->CollectPatterns(task, &report);
    }();
    if (!mined.ok()) return ErrorResponse(mined.status());
    PatternSet patterns = mined.TakeValueOrDie();
    patterns.SortBySupport();
    record(report, patterns.size(), 0);
    return JsonOk(PatternsResultToJson(report, patterns, dict));
  }

  if (path == "/mine/episodes") {
    uint64_t window = 10, min_count = 1, max_len = 0;
    bool minepi = false;
    status = body.GetUint("window", &window);
    if (status.ok()) status = body.GetUint("min_count", &min_count);
    if (status.ok()) status = body.GetUint("max_len", &max_len);
    if (status.ok()) status = body.GetBool("minepi", &minepi);
    if (!status.ok()) return ErrorResponse(status);
    EpisodeTask task;
    if (minepi) {
      task.algorithm = EpisodeTask::Algorithm::kMinepi;
      task.minepi.max_window = window;
      task.minepi.min_support = min_count;
      task.minepi.max_length = max_len;
      task.minepi.cancel = cancel;
    } else {
      task.winepi.window_width = window;
      task.winepi.min_window_count = min_count;
      task.winepi.max_length = max_len;
      task.winepi.cancel = cancel;
    }
    RunReport report;
    Result<PatternSet> mined = engine->CollectPatterns(task, &report);
    if (!mined.ok()) return ErrorResponse(mined.status());
    PatternSet episodes = mined.TakeValueOrDie();
    episodes.SortBySupport();
    record(report, episodes.size(), 0);
    return JsonOk(PatternsResultToJson(report, episodes, dict));
  }

  // /mine/pairs.
  TwoEventTask task;
  double min_sat = 1.0;
  uint64_t min_relevant = 1;
  status = body.GetDouble("min_sat", &min_sat);
  if (status.ok()) status = body.GetUint("min_relevant", &min_relevant);
  if (!status.ok()) return ErrorResponse(status);
  task.options.min_satisfaction = min_sat;
  task.options.min_relevant_traces = min_relevant;
  task.options.cancel = cancel;
  CollectingTwoEventSink sink;
  Result<RunReport> report = engine->Mine(task, sink);
  if (!report.ok()) return ErrorResponse(report.status());
  record(*report, 0, sink.rules().size());
  return JsonOk(TwoEventResultToJson(*report, sink.rules(), dict));
}

void Server::LogRequest(const HttpRequest& request,
                        const HttpResponse& response, double seconds) {
  if (options_.log == nullptr) return;
  // Hand-assembled compact JSON: the pretty-printing JsonWriter is for
  // result documents; a log line must stay one line.
  std::string line = "{\"ts\":\"" + NowIso8601() + "\",\"method\":\"" +
                     JsonEscape(request.method) + "\",\"path\":\"" +
                     JsonEscape(request.Path()) + "\",\"status\":" +
                     std::to_string(response.status) + ",\"seconds\":" +
                     JsonDouble(seconds) + ",\"bytes_out\":" +
                     std::to_string(response.body.size()) + "}";
  std::lock_guard<std::mutex> lock(log_mu_);
  *options_.log << line << '\n' << std::flush;
}

}  // namespace specmine
