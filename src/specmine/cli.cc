#include "src/specmine/cli.h"

#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "src/engine/engine.h"
#include "src/engine/json_results.h"
#include "src/support/cancel.h"
#include "src/support/version.h"
#include "src/ltl/checker.h"
#include "src/ltl/parser.h"
#include "src/ltl/translate.h"
#include "src/rulemine/backward_rules.h"
#include "src/specmine/ranking.h"
#include "src/synth/quest_generator.h"
#include "src/trace/append_session.h"
#include "src/trace/csv_trace_reader.h"
#include "src/trace/database_stats.h"
#include "src/trace/shard_set.h"
#include "src/trace/trace_io.h"

namespace specmine {

namespace {

constexpr const char* kUsage = R"(usage: specmine <command> [options]

commands:
  stats <traces> [--trace N]        print database shape statistics
  pack <traces> <out.smdb>          pack traces into a binary mmap database
  pack <traces> <out.smdbset> [--shard-bytes N]
                                    pack into size-bounded .smdb shards
                                    plus a .smdbset manifest
  pack --append <traces> <set.smdbset>
                                    append traces to an existing shard set
                                    without rewriting sealed shards (the
                                    manifest commits atomically at the
                                    next generation)
  mine-patterns <traces> [options]  mine iterative patterns
  mine-rules <traces> [options]     mine recurrent rules (with LTL forms)
  mine-seq <traces> [options]       mine sequential patterns (PrefixSpan/BIDE)
  mine-episodes <traces> [options]  mine serial episodes (WINEPI/MINEPI)
  mine-pairs <traces> [options]     mine two-event rules (Perracotta)
  verify <file.smdb|.smdbset>       re-hash every stored checksum (full
                                    integrity pass over all sections and,
                                    for a set, every shard)
  check <traces> --ltl <formula>    evaluate an LTL formula on every trace
  gen-quest <out> [options]         generate a QUEST-style dataset
  version                           print version and build revision

common options:
  --csv [--group-col N] [--event-col N] [--delim C] [--header]
  --integrity {off,header,full}     checksum verification when opening
                                    .smdb/.smdbset inputs (default header)
  --quarantine                      .smdbset only: skip shards that fail to
                                    open or validate instead of failing the
                                    whole corpus; mining runs over the
                                    healthy subset (degraded mode)
  <traces> ending in .smdb is opened as a packed binary database (zero-copy
  mmap; see 'pack') in every command that accepts a trace file; .smdbset
  opens a sharded corpus (shards mmap'ed, mining output identical to the
  equivalent single .smdb — mine-patterns --full runs the parallel
  per-shard path).

mine-patterns: --min-sup F (0.5) | --full | --generators | --max-len N
               --threads N (0 = all cores)
               --backend {auto,bitmap,hybrid}
mine-rules:    --min-ssup F (0.5) --min-conf F (0.9) --min-isup N (1)
               --full | --backward | --rank
               --max-pre N --max-post N --threads N (0 = all cores)
               --backend {auto,bitmap,hybrid}
mine-seq:      --min-sup F (0.5) | --closed | --generators | --max-len N
mine-episodes: --minepi | --window N (10) --min-count N (1) --max-len N
mine-pairs:    --min-sat F (1.0) --min-relevant N (1)
gen-quest:     --d F --c F --n F --s F --seed N

Every mine-* command accepts --timeout-ms N: the run is cancelled
cooperatively when the wall-clock budget passes, any patterns already
streamed are kept, and the process exits with code 6.

Every mine-* command also accepts --json: results are printed as the
canonical JSON document — the same serializer (and therefore the same
bytes, timing fields aside) as the specmined server's response for the
matching route (see docs/server.md).

All miners run through the specmine::Engine session API; invalid options
and malformed trace files are reported as errors (non-zero exit), never
mined around. Exit codes: 0 success, 2 usage, 3 invalid argument,
4 parse error / corruption, 5 I/O error, 6 cancelled or deadline
exceeded, 1 anything else.

--backend selects the layout of the one counting index: bitmap (a
word-packed occurrence row for every event), hybrid (bitmap rows for
dense events, sorted ID-lists for rare ones), or auto (default;
per-database density heuristic — a sharded corpus resolves over its
merged arena, exactly like the equivalent single .smdb). Outputs are
byte-identical across layouts. Accepted by every mine-* command;
mine-seq, mine-episodes and mine-pairs use no counting index, so there it
only validates.
)";

// Minimal flag parser: positional arguments plus --flag [value] pairs.
class Args {
 public:
  Args(const std::vector<std::string>& args, size_t from) {
    for (size_t i = from; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a.size() >= 2 && a[0] == '-' && a[1] == '-') {
        std::string name = a.substr(2);
        if (i + 1 < args.size() && (args[i + 1].empty() ||
                                    args[i + 1][0] != '-' ||
                                    args[i + 1].size() < 2 ||
                                    args[i + 1][1] != '-')) {
          flags_[name] = args[i + 1];
          ++i;
        } else {
          flags_[name] = "";
        }
      } else {
        positional_.push_back(a);
      }
    }
  }

  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  std::string Get(const std::string& name, const std::string& def) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
  }

  double GetDouble(const std::string& name, double def) const {
    auto it = flags_.find(name);
    if (it == flags_.end() || it->second.empty()) return def;
    try {
      return std::stod(it->second);
    } catch (const std::exception&) {
      return def;  // Unparseable value: fall back instead of aborting.
    }
  }

  uint64_t GetUint(const std::string& name, uint64_t def) const {
    auto it = flags_.find(name);
    if (it == flags_.end() || it->second.empty()) return def;
    // stoull silently wraps negatives ("-1" -> 2^64-1); treat them as
    // unparseable too and fall back instead of aborting downstream.
    if (it->second[0] == '-') return def;
    try {
      return std::stoull(it->second);
    } catch (const std::exception&) {
      return def;  // Unparseable value: fall back instead of aborting.
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

// Process exit codes (documented in kUsage): one bucket per failure class
// so scripts can tell bad flags from corrupt inputs from interrupted runs.
constexpr int kExitUsage = 2;
constexpr int kExitInvalidArgument = 3;
constexpr int kExitCorruptInput = 4;
constexpr int kExitIOError = 5;
constexpr int kExitInterrupted = 6;

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return kExitInvalidArgument;
    case StatusCode::kParseError:
      return kExitCorruptInput;
    case StatusCode::kIOError:
    case StatusCode::kNotFound:
      return kExitIOError;
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
      return kExitInterrupted;
    default:
      return 1;
  }
}

// Prints \p status and returns its exit code.
int Fail(std::ostream& err, const Status& status) {
  err << status.ToString() << '\n';
  return ExitCodeFor(status);
}

// Arms \p token from --timeout-ms and returns it, or null when the flag is
// absent (the miners treat a null cancel pointer as "never stop").
const CancelToken* ArmTimeout(const Args& args, CancelToken* token) {
  if (!args.Has("timeout-ms")) return nullptr;
  token->SetDeadline(std::chrono::milliseconds(args.GetUint("timeout-ms", 0)));
  return token;
}

// Parses --integrity into \p out; false (with a message) on a bad value.
bool ParseIntegrityFlag(const Args& args, std::ostream& err,
                        IntegrityMode* out) {
  const std::string value = args.Get("integrity", "header");
  if (value.empty() || value == "header") {
    *out = IntegrityMode::kHeader;
  } else if (value == "off") {
    *out = IntegrityMode::kOff;
  } else if (value == "full") {
    *out = IntegrityMode::kFull;
  } else {
    err << "--integrity must be off, header or full (got '" << value
        << "')\n";
    return false;
  }
  return true;
}

// Parses --backend into \p out; false (with a message) on a bad value.
bool ParseBackendFlag(const Args& args, std::ostream& err,
                      BackendChoice* out) {
  const std::string value = args.Get("backend", "auto");
  const std::optional<BackendChoice> choice = ParseBackendChoice(value);
  if (!choice) {
    err << "--backend must be auto, bitmap or hybrid (got '" << value
        << "')\n";
    return false;
  }
  *out = *choice;
  return true;
}

// Opens an Engine session over the trace file named by \p path —
// plain-text by default, CSV instrumentation records with --csv, a packed
// binary database when the path ends in .smdb. Parse/validation errors
// (with their line numbers or corrupt section) come back as a non-OK
// Result.
Result<Engine> LoadEngine(const Args& args, const std::string& path,
                          std::ostream& err) {
  IntegrityMode integrity = IntegrityMode::kHeader;
  {
    std::ostringstream bad;
    if (!ParseIntegrityFlag(args, bad, &integrity)) {
      return Status::InvalidArgument(bad.str());
    }
  }
  if (IsSmdbSetPath(path)) {
    SetOpenOptions options;
    options.integrity = integrity;
    options.policy = args.Has("quarantine") ? ShardFailurePolicy::kQuarantine
                                            : ShardFailurePolicy::kFail;
    Result<Engine> engine = Engine::FromShardSet(path, options);
    if (engine.ok()) {
      // A degraded open must be loud: every quarantined shard goes to
      // stderr so no script mistakes a partial corpus for the whole one.
      for (const QuarantinedShard& q :
           engine->shard_set().open_report().quarantined) {
        err << "warning: quarantined shard " << q.index << " (" << q.path
            << "): " << q.error << '\n';
      }
    }
    return engine;
  }
  if (IsSmdbPath(path)) {
    SmdbOpenOptions options;
    options.integrity = integrity;
    return Engine::FromBinaryFile(path, options);
  }
  if (args.Has("csv")) {
    CsvTraceOptions options;
    options.group_column = args.GetUint("group-col", 0);
    options.event_column = args.GetUint("event-col", 1);
    std::string delim = args.Get("delim", ",");
    options.delimiter = delim.empty() ? ',' : delim[0];
    options.has_header = args.Has("header");
    return Engine::FromCsvTraceFile(path, options);
  }
  return Engine::FromTextTraceFile(path);
}

int CmdStats(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << "stats: missing trace file\n";
    return 2;
  }
  Result<Engine> engine = LoadEngine(args, args.positional()[0], err);
  if (!engine.ok()) return Fail(err, engine.status());
  const SequenceDatabase& db = engine->database();
  out << ComputeStats(db).ToString() << '\n';
  const BackendKind chosen = ChooseBackendKind(db);
  out << "auto backend: " << BackendKindName(chosen) << '\n';
  if (chosen == BackendKind::kHybrid) {
    // Show the sparse/dense split the hybrid layout would use — the
    // knob --backend=hybrid tuning starts from (docs/user_guide.md).
    const HybridIndex hybrid(db);
    out << "hybrid split: " << hybrid.num_dense_events()
        << " dense events (bitmap rows), "
        << (hybrid.num_events() - hybrid.num_dense_events())
        << " sparse (ID-lists), cutoff " << hybrid.dense_cutoff()
        << " occurrences\n";
  }
  if (engine->sharded()) {
    const ShardedDatabase& set = engine->shard_set();
    out << set.num_shards() << " shards:\n";
    for (size_t i = 0; i < set.num_shards(); ++i) {
      out << "  shard " << i << ": " << set.shard(i).size()
          << " sequences, " << set.shard(i).TotalEvents() << " events, "
          << set.shard(i).dictionary().size() << " distinct ("
          << set.shard_path(i) << ")\n";
    }
  }
  if (args.Has("trace")) {
    // Bounds-checked by design: a bad id is a user error, not a crash.
    const uint64_t id = args.GetUint("trace", 0);
    if (id > std::numeric_limits<SeqId>::max()) {
      return Fail(err,
                  Status::OutOfRange("sequence id " + std::to_string(id) +
                                     " out of range (database has " +
                                     std::to_string(db.size()) +
                                     " sequences)"));
    }
    Result<EventSpan> trace = db.at(static_cast<SeqId>(id));
    if (!trace.ok()) return Fail(err, trace.status());
    out << "trace " << id << ':';
    for (EventId ev : *trace) out << ' ' << db.dictionary().NameOrPlaceholder(ev);
    out << '\n';
  }
  return 0;
}

int CmdPack(const Args& args, std::ostream& out, std::ostream& err) {
  // The flag parser greedily binds the token after --append as its value
  // ("pack --append traces.txt set.smdbset"); fold it back into the
  // positional list so the documented ordering works.
  std::vector<std::string> positional = args.positional();
  if (args.Has("append")) {
    const std::string value = args.Get("append", "");
    if (!value.empty()) positional.insert(positional.begin(), value);
  }
  if (positional.size() < 2) {
    err << "pack: usage: pack [--append] <traces> <out.smdb|out.smdbset> "
           "[--shard-bytes N] [--csv ...]\n";
    return 2;
  }
  const std::string& in_path = positional[0];
  const std::string& out_path = positional[1];
  if (args.Has("shard-bytes") && !IsSmdbSetPath(out_path)) {
    err << "pack: --shard-bytes requires a .smdbset output path\n";
    return 2;
  }
  Result<Engine> engine = LoadEngine(args, in_path, err);
  if (!engine.ok()) return Fail(err, engine.status());
  if (args.Has("append")) {
    if (!IsSmdbSetPath(out_path)) {
      err << "pack: --append requires a .smdbset target\n";
      return 2;
    }
    AppendOptions options;
    options.writer.shard_bytes =
        args.GetUint("shard-bytes", options.writer.shard_bytes);
    Result<AppendSession> opened = AppendSession::Open(out_path, options);
    if (!opened.ok()) return Fail(err, opened.status());
    AppendSession session = opened.TakeValueOrDie();
    const SequenceDatabase& db = engine->database();
    for (size_t i = 0; i < db.size(); ++i) {
      Result<EventSpan> trace = db.at(static_cast<SeqId>(i));
      if (!trace.ok()) return Fail(err, trace.status());
      Status added = session.AddSequence(*trace, db.dictionary());
      if (!added.ok()) return Fail(err, added);
    }
    Status committed = session.Commit();
    if (!committed.ok()) return Fail(err, committed);
    // Reopening validates the appended set end to end.
    Result<ShardedDatabase> set = ShardedDatabase::Open(out_path);
    if (!set.ok()) return Fail(err, set.status());
    out << "appended " << db.size() << " traces from " << in_path << " -> "
        << out_path << ": generation " << session.committed_generation()
        << ", " << set->num_shards() << " shards, "
        << set->TotalSequences() << " sequences\n";
    return 0;
  }
  if (IsSmdbSetPath(out_path)) {
    ShardWriterOptions options;
    options.shard_bytes = args.GetUint("shard-bytes", options.shard_bytes);
    Status written =
        WriteShardedDatabase(engine->database(), out_path, options);
    if (!written.ok()) return Fail(err, written);
    // Reopening validates the set end to end and tells us the shard count.
    Result<ShardedDatabase> set = ShardedDatabase::Open(out_path);
    if (!set.ok()) return Fail(err, set.status());
    out << "packed " << in_path << " -> " << out_path << ": "
        << set->num_shards() << " shards, "
        << ComputeStats(engine->database()).ToString() << '\n';
    return 0;
  }
  Status written = engine->SaveBinary(out_path);
  if (!written.ok()) return Fail(err, written);
  out << "packed " << in_path << " -> " << out_path << ": "
      << ComputeStats(engine->database()).ToString() << '\n';
  return 0;
}

int CmdMinePatterns(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << "mine-patterns: missing trace file\n";
    return 2;
  }
  Result<Engine> engine = LoadEngine(args, args.positional()[0], err);
  if (!engine.ok()) return Fail(err, engine.status());
  const uint64_t min_support =
      engine->AbsoluteSupport(args.GetDouble("min-sup", 0.5));
  BackendChoice backend = BackendChoice::kAuto;
  if (!ParseBackendFlag(args, err, &backend)) return kExitInvalidArgument;
  CancelToken timeout;
  const CancelToken* cancel = ArmTimeout(args, &timeout);
  RunReport report;
  Result<PatternSet> mined = [&]() -> Result<PatternSet> {
    if (args.Has("generators")) {
      GeneratorsTask task;
      task.options.min_support = min_support;
      task.options.max_length = args.GetUint("max-len", 0);
      task.options.num_threads = args.GetUint("threads", 0);
      task.options.backend = backend;
      task.options.cancel = cancel;
      return engine->CollectPatterns(task, &report);
    }
    if (args.Has("full")) {
      FullPatternsTask task;
      task.options.min_support = min_support;
      task.options.max_length = args.GetUint("max-len", 0);
      task.options.num_threads = args.GetUint("threads", 0);
      task.options.backend = backend;
      task.options.cancel = cancel;
      if (engine->sharded()) {
        // The per-shard parallel path; output is byte-identical to the
        // merged pass (the sharded-equivalence contract).
        CollectingPatternSink sink;
        Result<RunReport> run = engine->MineSharded(task, sink);
        if (!run.ok()) return run.status();
        report = *run;
        return sink.TakeSet();
      }
      return engine->CollectPatterns(task, &report);
    }
    ClosedTask task;
    task.options.min_support = min_support;
    task.options.max_length = args.GetUint("max-len", 0);
    task.options.num_threads = args.GetUint("threads", 0);
    task.options.backend = backend;
    task.options.cancel = cancel;
    return engine->CollectPatterns(task, &report);
  }();
  if (!mined.ok()) return Fail(err, mined.status());
  PatternSet patterns = mined.TakeValueOrDie();
  patterns.SortBySupport();
  if (args.Has("json")) {
    out << PatternsResultToJson(report, patterns,
                                engine->dictionary());
    return 0;
  }
  out << patterns.size() << " patterns\n";
  out << "timing: backend " << (report.backend.empty() ? "-" : report.backend)
      << ", index build " << report.index_build_seconds << " s, mine "
      << report.mine_seconds << " s\n";
  out << patterns.ToString(engine->dictionary());
  return 0;
}

int CmdMineRules(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << "mine-rules: missing trace file\n";
    return 2;
  }
  Result<Engine> loaded = LoadEngine(args, args.positional()[0], err);
  if (!loaded.ok()) return Fail(err, loaded.status());
  const Engine& engine = *loaded;
  const SequenceDatabase& db = engine.database();

  RulesTask task;
  task.options.min_s_support =
      engine.AbsoluteSupport(args.GetDouble("min-ssup", 0.5));
  task.options.min_confidence = args.GetDouble("min-conf", 0.9);
  task.options.min_i_support = args.GetUint("min-isup", 1);
  task.options.non_redundant = !args.Has("full");
  task.options.max_premise_length = args.GetUint("max-pre", 0);
  task.options.max_consequent_length = args.GetUint("max-post", 0);
  task.options.num_threads = args.GetUint("threads", 0);
  if (!ParseBackendFlag(args, err, &task.options.backend)) {
    return kExitInvalidArgument;
  }
  task.backward = args.Has("backward");
  CancelToken timeout;
  task.options.cancel = ArmTimeout(args, &timeout);

  RunReport report;
  Result<RuleSet> mined = engine.CollectRules(task, &report);
  if (!mined.ok()) return Fail(err, mined.status());
  RuleSet rules = mined.TakeValueOrDie();
  if (args.Has("json")) {
    rules.SortByQuality();
    out << RulesResultToJson(report, rules, db.dictionary());
    return 0;
  }
  out << rules.size() << (task.backward ? " backward" : "") << " rules\n";
  if (args.Has("rank") && !task.backward) {
    for (const RankedRule& rr : RankRules(rules, db)) {
      out << rr.rule.ToString(db.dictionary()) << "  lift="
          << rr.lift << '\n';
      out << "    LTL: " << RuleToLtl(rr.rule, db.dictionary())->ToString()
          << '\n';
    }
    return 0;
  }
  rules.SortByQuality();
  for (const Rule& r : rules.rules()) {
    if (task.backward) {
      out << BackwardRuleToString(r, db.dictionary()) << '\n';
    } else {
      out << r.ToString(db.dictionary()) << '\n';
      out << "    LTL: " << RuleToLtl(r, db.dictionary())->ToString() << '\n';
    }
  }
  return 0;
}

int CmdMineSeq(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << "mine-seq: missing trace file\n";
    return 2;
  }
  Result<Engine> engine = LoadEngine(args, args.positional()[0], err);
  if (!engine.ok()) return Fail(err, engine.status());
  const uint64_t min_support =
      engine->AbsoluteSupport(args.GetDouble("min-sup", 0.5));
  const size_t max_length = args.GetUint("max-len", 0);
  BackendChoice backend = BackendChoice::kAuto;
  if (!ParseBackendFlag(args, err, &backend)) return kExitInvalidArgument;
  (void)backend;  // The sequential miners use no counting index.
  CancelToken timeout;
  const CancelToken* cancel = ArmTimeout(args, &timeout);
  RunReport report;
  Result<PatternSet> mined = [&]() -> Result<PatternSet> {
    if (args.Has("generators")) {
      SequentialGeneratorsTask task;
      task.options.min_support = min_support;
      task.options.max_length = max_length;
      task.options.cancel = cancel;
      return engine->CollectPatterns(task, &report);
    }
    if (args.Has("closed")) {
      ClosedSequentialTask task;
      task.options.min_support = min_support;
      task.options.max_length = max_length;
      task.options.cancel = cancel;
      return engine->CollectPatterns(task, &report);
    }
    SequentialTask task;
    task.options.min_support = min_support;
    task.options.max_length = max_length;
    task.options.cancel = cancel;
    return engine->CollectPatterns(task, &report);
  }();
  if (!mined.ok()) return Fail(err, mined.status());
  PatternSet patterns = mined.TakeValueOrDie();
  patterns.SortBySupport();
  if (args.Has("json")) {
    out << PatternsResultToJson(report, patterns,
                                engine->dictionary());
    return 0;
  }
  out << patterns.size() << " sequential patterns (" << report.task << ")\n";
  out << patterns.ToString(engine->dictionary());
  return 0;
}

int CmdMineEpisodes(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << "mine-episodes: missing trace file\n";
    return 2;
  }
  Result<Engine> engine = LoadEngine(args, args.positional()[0], err);
  if (!engine.ok()) return Fail(err, engine.status());
  BackendChoice backend = BackendChoice::kAuto;
  if (!ParseBackendFlag(args, err, &backend)) return kExitInvalidArgument;
  (void)backend;  // The episode miners use no counting index.
  CancelToken timeout;
  const CancelToken* cancel = ArmTimeout(args, &timeout);
  EpisodeTask task;
  if (args.Has("minepi")) {
    task.algorithm = EpisodeTask::Algorithm::kMinepi;
    task.minepi.max_window = args.GetUint("window", 10);
    task.minepi.min_support = args.GetUint("min-count", 1);
    task.minepi.max_length = args.GetUint("max-len", 0);
    task.minepi.cancel = cancel;
  } else {
    task.winepi.window_width = args.GetUint("window", 10);
    task.winepi.min_window_count = args.GetUint("min-count", 1);
    task.winepi.max_length = args.GetUint("max-len", 0);
    task.winepi.cancel = cancel;
  }
  RunReport report;
  Result<PatternSet> mined = engine->CollectPatterns(task, &report);
  if (!mined.ok()) return Fail(err, mined.status());
  PatternSet episodes = mined.TakeValueOrDie();
  episodes.SortBySupport();
  if (args.Has("json")) {
    out << PatternsResultToJson(report, episodes,
                                engine->dictionary());
    return 0;
  }
  out << episodes.size() << " episodes (" << report.task << ")\n";
  out << episodes.ToString(engine->dictionary());
  return 0;
}

int CmdMinePairs(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << "mine-pairs: missing trace file\n";
    return 2;
  }
  Result<Engine> engine = LoadEngine(args, args.positional()[0], err);
  if (!engine.ok()) return Fail(err, engine.status());
  BackendChoice backend = BackendChoice::kAuto;
  if (!ParseBackendFlag(args, err, &backend)) return kExitInvalidArgument;
  (void)backend;  // The two-event miner uses no counting index.
  CancelToken timeout;
  TwoEventTask task;
  task.options.min_satisfaction = args.GetDouble("min-sat", 1.0);
  task.options.min_relevant_traces = args.GetUint("min-relevant", 1);
  task.options.cancel = ArmTimeout(args, &timeout);
  CollectingTwoEventSink sink;
  Result<RunReport> report = engine->Mine(task, sink);
  if (!report.ok()) return Fail(err, report.status());
  if (args.Has("json")) {
    out << TwoEventResultToJson(*report, sink.rules(),
                                engine->dictionary());
    return 0;
  }
  out << sink.rules().size() << " two-event rules\n";
  for (const TwoEventRule& rule : sink.rules()) {
    out << rule.ToString(engine->dictionary()) << '\n';
  }
  return 0;
}

// Re-hashes every stored checksum of a packed file: a full-integrity open
// of the .smdb (or of the manifest and every shard of a .smdbset). With
// --quarantine a set verify reports bad shards instead of failing on the
// first one; any quarantined shard still makes the exit code non-zero, so
// scripts can use `specmine verify` as a boolean health probe.
int CmdVerify(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << "verify: usage: verify <file.smdb|file.smdbset> [--quarantine]\n";
    return kExitUsage;
  }
  const std::string& path = args.positional()[0];
  if (IsSmdbSetPath(path)) {
    SetOpenOptions options;
    options.integrity = IntegrityMode::kFull;
    options.policy = args.Has("quarantine") ? ShardFailurePolicy::kQuarantine
                                            : ShardFailurePolicy::kFail;
    Result<ShardedDatabase> set = ShardedDatabase::Open(path, options);
    if (!set.ok()) return Fail(err, set.status());
    const SetOpenReport& report = set->open_report();
    out << path << ": " << set->num_shards() << " / " << report.shards_total
        << " shards verified, " << set->TotalSequences() << " sequences, "
        << set->TotalEvents() << " events, " << set->dictionary().size()
        << " distinct events\n";
    for (const QuarantinedShard& q : report.quarantined) {
      out << "  QUARANTINED shard " << q.index << " (" << q.path
          << "): " << q.error << '\n';
    }
    if (!report.quarantined.empty()) {
      return Fail(err, Status::ParseError(
                           std::to_string(report.quarantined.size()) +
                           " of " + std::to_string(report.shards_total) +
                           " shards failed verification"));
    }
    out << "OK\n";
    return 0;
  }
  if (IsSmdbPath(path)) {
    SmdbOpenOptions options;
    options.integrity = IntegrityMode::kFull;
    Result<MappedDatabase> mapped = MappedDatabase::Open(path, options);
    if (!mapped.ok()) return Fail(err, mapped.status());
    out << path << ": format v" << mapped->file_version() << ", "
        << mapped->db().size() << " sequences, " << mapped->db().TotalEvents()
        << " events, " << mapped->db().dictionary().size()
        << " distinct events\n";
    if (mapped->file_version() < kSmdbVersion) {
      out << "note: legacy v" << mapped->file_version()
          << " file carries no checksums; only structural validation ran "
             "(repack to add checksums)\n";
    }
    out << "OK\n";
    return 0;
  }
  err << "verify: expected a .smdb or .smdbset path, got '" << path << "'\n";
  return kExitUsage;
}

int CmdCheck(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty() || !args.Has("ltl")) {
    err << "check: usage: check <traces> --ltl <formula>\n";
    return 2;
  }
  Result<Engine> engine = LoadEngine(args, args.positional()[0], err);
  if (!engine.ok()) return Fail(err, engine.status());
  const SequenceDatabase& db = engine->database();
  Result<LtlPtr> formula = ParseLtl(args.Get("ltl", ""));
  if (!formula.ok()) return Fail(err, formula.status());
  size_t holding = 0;
  for (SeqId s = 0; s < db.size(); ++s) {
    bool ok = EvaluateLtl(*formula, db, s);
    if (ok) ++holding;
    out << "trace " << s << ": " << (ok ? "holds" : "VIOLATED") << '\n';
  }
  out << holding << " / " << db.size() << " traces satisfy "
      << (*formula)->ToString() << '\n';
  return holding == db.size() ? 0 : 1;
}

int CmdGenQuest(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positional().empty()) {
    err << "gen-quest: missing output file\n";
    return 2;
  }
  QuestParams params;
  params.d_sequences_thousands = args.GetDouble("d", 0.1);
  params.c_avg_sequence_length = args.GetDouble("c", 15.0);
  params.n_events_thousands = args.GetDouble("n", 0.2);
  params.s_avg_pattern_length = args.GetDouble("s", 6.0);
  params.seed = args.GetUint("seed", params.seed);
  Result<SequenceDatabase> db = GenerateQuest(params);
  if (!db.ok()) return Fail(err, db.status());
  Status written = WriteTextTraceFile(*db, args.positional()[0]);
  if (!written.ok()) return Fail(err, written);
  out << "wrote " << params.Label() << ": " << ComputeStats(*db).ToString()
      << '\n';
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 2 : 0;
  }
  if (args[0] == "version" || args[0] == "--version") {
    out << VersionLine() << '\n';
    return 0;
  }
  const std::string& command = args[0];
  Args parsed(args, 1);
  if (command == "stats") return CmdStats(parsed, out, err);
  if (command == "pack") return CmdPack(parsed, out, err);
  if (command == "mine-patterns") return CmdMinePatterns(parsed, out, err);
  if (command == "mine-rules") return CmdMineRules(parsed, out, err);
  if (command == "mine-seq") return CmdMineSeq(parsed, out, err);
  if (command == "mine-episodes") return CmdMineEpisodes(parsed, out, err);
  if (command == "mine-pairs") return CmdMinePairs(parsed, out, err);
  if (command == "verify") return CmdVerify(parsed, out, err);
  if (command == "check") return CmdCheck(parsed, out, err);
  if (command == "gen-quest") return CmdGenQuest(parsed, out, err);
  err << "unknown command: " << command << '\n' << kUsage;
  return 2;
}

}  // namespace specmine
