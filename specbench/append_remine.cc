// append-remine: a modular .smdbset (one shard per module) that grows by
// one module per operation: AppendSession Open -> AddSequence* -> Commit,
// reopen with Engine::FromShardSet, then MineSharded with the warm phase-1
// cache on one thread. Each round starts from a freshly packed base and
// appends the same kAppendModules modules.
//
// One mining thread, not load_threads: only the new shard is scanned per
// cycle, so extra threads barely shorten an operation, and on a shared
// 4-vCPU host they doubled the run-to-run spread (a stalled worker stalls
// the whole cycle).

#include <cstdio>
#include <memory>

#include "specbench/corpora.h"
#include "specbench/workloads.h"
#include "src/engine/phase1_cache.h"
#include "src/trace/append_session.h"
#include "src/trace/shard_set.h"
#include "src/trace/trace_io.h"

namespace specbench {

using specmine::Engine;
using specmine::Result;
using specmine::RunReport;
using specmine::SequenceDatabase;
using specmine::Status;

namespace {

Status PackBase(const std::string& dir, const std::string& manifest) {
  specmine::ShardWriter writer(manifest);
  for (size_t m = 0; m < kBaseModules; ++m) {
    Result<SequenceDatabase> module =
        specmine::ReadTextTraceFile(ModuleFile(dir, m));
    if (!module.ok()) return module.status();
    Status status = writer.CutShard();
    for (specmine::EventSpan seq : *module) {
      if (status.ok()) status = writer.AddSequence(seq, module->dictionary());
    }
    if (!status.ok()) return status;
  }
  return writer.Finish();
}

Status Append(const std::string& manifest, const SequenceDatabase& module) {
  Result<specmine::AppendSession> opened =
      specmine::AppendSession::Open(manifest);
  if (!opened.ok()) return opened.status();
  specmine::AppendSession session = opened.TakeValueOrDie();
  for (specmine::EventSpan seq : module) {
    Status status = session.AddSequence(seq, module.dictionary());
    if (!status.ok()) return status;
  }
  return session.Commit();
}

// Removes every file of a previous round's set: the manifest, its .p1c
// and every shard the manifest could have listed.
void RemoveSet(const std::string& manifest, const std::string& stem) {
  std::remove(manifest.c_str());
  std::remove(specmine::Phase1CachePath(manifest).c_str());
  for (size_t i = 0; i <= kBaseModules + kAppendModules; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), ".%04zu.smdb", i);
    std::remove((stem + name).c_str());
  }
}

}  // namespace

Status RunAppendRemine(const RunConfig& config, Tracer& tracer,
                       PhaseResult* result) {
  const std::string stem = config.work_dir + "/modular";
  const std::string manifest = stem + specmine::kSmdbSetExtension;

  std::vector<SequenceDatabase> appends;
  for (size_t m = kBaseModules; m < kBaseModules + kAppendModules; ++m) {
    Result<SequenceDatabase> module =
        specmine::ReadTextTraceFile(ModuleFile(config.work_dir, m));
    if (!module.ok()) return module.status();
    appends.push_back(module.TakeValueOrDie());
  }

  specmine::FullPatternsTask task;
  task.options.min_support = kModularMinSupport;
  task.options.num_threads = 1;
  specmine::FullPatternsTask cold_task = task;
  cold_task.phase1_cache = false;

  bool every_cycle_incremental = true;
  std::string first_violation;
  uint64_t bytes_written = 0, events_appended = 0;
  double timed = 0.0;
  size_t op = 0;
  const Clock::time_point phase_start = Clock::now();
  while ((SecondsSince(phase_start) < config.seconds || op < kMinOperations) &&
         SecondsSince(phase_start) < config.max_seconds) {
    // Set-up of one round: pack the base, open it, mine it cold (which
    // builds the per-shard indexes and writes the phase-1 cache).
    RemoveSet(manifest, stem);
    std::unique_ptr<Engine> engine;
    const Clock::time_point setup_start = Clock::now();
    Status status;
    {
      ScopedSpan span(tracer, "trace.pack", -1);
      status = PackBase(config.work_dir, manifest);
    }
    if (!status.ok()) return status;
    {
      ScopedSpan span(tracer, "trace.open", -1);
      Result<Engine> opened = Engine::FromShardSet(manifest);
      if (!opened.ok()) return opened.status();
      engine = std::make_unique<Engine>(opened.TakeValueOrDie());
    }
    {
      ScopedSpan span(tracer, "engine.base_mine", -1);
      DigestPatternSink sink(engine->dictionary());
      Result<RunReport> run = engine->MineSharded(task, sink);
      if (!run.ok()) return run.status();
    }
    result->setup_s.push_back(SecondsSince(setup_start));
    if (result->shape.sequences == 0) {
      const std::string label = "modular " +
                                ModuleParams(config.seed, 0).Label() + " x" +
                                std::to_string(kBaseModules);
      result->shape = ShapeOf(engine->database(), label);
    }

    uint64_t last_digest = 0;
    for (const SequenceDatabase& module : appends) {
      const uint64_t written_before = WrittenBytes();
      const Clock::time_point op_start = Clock::now();
      bool ok = true;
      RunReport report;
      {
        ScopedSpan cycle(tracer, "bench.cycle", static_cast<int64_t>(op));
        engine.reset();
        {
          ScopedSpan span(tracer, "trace.append", static_cast<int64_t>(op),
                          cycle.id());
          status = Append(manifest, module);
        }
        tracer.Count("trace.bytes_written",
                     static_cast<double>(WrittenBytes() - written_before));
        if (status.ok()) {
          ScopedSpan span(tracer, "trace.open", static_cast<int64_t>(op),
                          cycle.id());
          Result<Engine> opened = Engine::FromShardSet(manifest);
          if (opened.ok()) {
            engine = std::make_unique<Engine>(opened.TakeValueOrDie());
          } else {
            status = opened.status();
          }
        }
        if (status.ok()) {
          ScopedSpan span(tracer, "engine.sharded_mine",
                          static_cast<int64_t>(op), cycle.id());
          DigestPatternSink sink(engine->dictionary());
          Result<RunReport> run = engine->MineSharded(task, sink);
          if (run.ok()) {
            report = *run;
            last_digest = sink.digest();
            tracer.AddChild("itermine.index_build", span.id(),
                            report.index_build_seconds);
          } else {
            status = run.status();
          }
        }
      }
      const double latency = SecondsSince(op_start);
      bytes_written += WrittenBytes() - written_before;
      events_appended += module.TotalEvents();
      result->latencies_s.push_back(latency);
      timed += latency;
      ++result->attempted;
      ++op;
      ok = status.ok();
      if (!ok) {
        std::fprintf(stderr, "append-remine cycle %zu: %s\n", op,
                     status.ToString().c_str());
        engine.reset();
        ++result->failed;
        break;
      }
      const bool incremental = report.shards_scanned == 1 &&
                               report.shards_cached + 1 == report.shards_total;
      if (!incremental) {
        ++result->failed;
        if (every_cycle_incremental) {
          first_violation = "cycle " + std::to_string(op) + ": " +
                            std::to_string(report.shards_scanned) +
                            " scanned, " +
                            std::to_string(report.shards_cached) + " cached of " +
                            std::to_string(report.shards_total);
        }
        every_cycle_incremental = false;
      }
      size_t phase1_nodes = 0;
      for (size_t nodes : report.shard_phase1_nodes) phase1_nodes += nodes;
      tracer.Count("engine.shards_scanned",
                   static_cast<double>(report.shards_scanned));
      tracer.Count("engine.shards_cached",
                   static_cast<double>(report.shards_cached));
      tracer.Count("engine.shards_total",
                   static_cast<double>(report.shards_total));
      tracer.Count("engine.phase1_nodes", static_cast<double>(phase1_nodes));
    }
    if (engine == nullptr) break;

    // Output check: the final generation's warm result must equal a cold
    // MineSharded that neither reads nor writes the phase-1 cache.
    {
      ScopedSpan span(tracer, "engine.cold_sharded_mine", -1);
      DigestPatternSink sink(engine->dictionary());
      Result<RunReport> cold = engine->MineSharded(cold_task, sink);
      if (!cold.ok() || sink.digest() != last_digest) ++result->failed;
    }
  }
  result->timed_seconds = timed;
  result->peak_rss_mb = PeakRssMb();
  result->write_bytes_per_event =
      events_appended == 0 ? 0.0
                           : static_cast<double>(bytes_written) /
                                 static_cast<double>(events_appended);
  result->assertions.push_back(
      {"every cycle scans exactly the new shard", every_cycle_incremental,
       every_cycle_incremental ? "1 scanned, rest cached" : first_violation});
  RemoveSet(manifest, stem);
  return Status::OK();
}

}  // namespace specbench
