// batch-dense: in-process Engine sessions, one per packed dense .smdb, and
// one thread cycling full / closed / generators / forward and backward
// rules mines over them at fixed thresholds into digest-counting sinks.

#include <fstream>
#include <memory>

#include "specbench/corpora.h"
#include "specbench/workloads.h"

namespace specbench {

using specmine::Engine;
using specmine::Result;
using specmine::RunReport;
using specmine::Status;

namespace {

// Set-up is repeated every kOpsPerSetup operations, so setup_s is a median
// over the whole run rather than over one moment of the machine.
constexpr size_t kCycle = kDenseTasks * kDenseCorpora;
constexpr size_t kOpsPerSetup = 5 * kCycle;

struct Reference {
  uint64_t digest = 0;
  size_t count = 0;
};

Status ReadReference(const std::string& path, Reference out[kCycle]) {
  std::ifstream in(path);
  for (size_t k = 0; k < kDenseCorpora; ++k) {
    for (size_t t = 0; t < kDenseTasks; ++t) {
      size_t corpus = 0;
      std::string name;
      Reference ref;
      if (!(in >> corpus >> name >> ref.digest >> ref.count) || corpus != k ||
          name != DenseTaskName(kDenseCycle[t])) {
        return Status::ParseError("bad reference file " + path);
      }
      out[k * kDenseTasks + t] = ref;
    }
  }
  return Status::OK();
}

const char* LayerSpan(DenseTask task) {
  switch (task) {
    case DenseTask::kFull:
      return "itermine.full";
    case DenseTask::kClosed:
      return "itermine.closed";
    case DenseTask::kGenerators:
      return "itermine.generators";
    case DenseTask::kRules:
      return "rulemine.rules";
    case DenseTask::kBackwardRules:
      return "rulemine.backward_rules";
  }
  return "?";
}

}  // namespace

Status RunBatchDense(const RunConfig& config, Tracer& tracer,
                     PhaseResult* result) {
  Reference reference[kCycle];
  Status status = ReadReference(config.work_dir + "/reference.txt", reference);
  if (!status.ok()) return status;

  // Set-up: pack, open and cold index build of every corpus.
  std::unique_ptr<Engine> engines[kDenseCorpora];
  std::string backends[kDenseCorpora];
  uint64_t written = 0;
  auto set_up = [&]() -> Status {
    const Clock::time_point start = Clock::now();
    double index_rss_mb = 0.0;
    written = 0;
    for (size_t k = 0; k < kDenseCorpora; ++k) {
      engines[k].reset();
      const std::string smdb =
          config.work_dir + "/dense." + std::to_string(k) + ".smdb";
      const uint64_t written_before = WrittenBytes();
      {
        ScopedSpan span(tracer, "trace.pack", -1);
        status = PackSmdb(DenseFile(config.work_dir, k), smdb);
      }
      if (!status.ok()) return status;
      written += WrittenBytes() - written_before;
      {
        ScopedSpan span(tracer, "trace.open", -1);
        Result<Engine> opened = Engine::FromBinaryFile(smdb);
        if (!opened.ok()) return opened.status();
        engines[k] = std::make_unique<Engine>(opened.TakeValueOrDie());
      }
      const double rss_before = CurrentRssMb();
      {
        ScopedSpan span(tracer, "itermine.index_build", -1);
        backends[k] = engines[k]->backend(specmine::BackendChoice::kAuto).name();
      }
      index_rss_mb += CurrentRssMb() - rss_before;
    }
    result->setup_s.push_back(SecondsSince(start));
    tracer.Count("itermine.index_rss_mb", index_rss_mb);
    tracer.Count("trace.bytes_written", static_cast<double>(written));
    return Status::OK();
  };
  status = set_up();
  if (!status.ok()) return status;

  CorpusShape& shape = result->shape;
  shape.generator = std::to_string(kDenseCorpora) + " x " +
                    DenseParams(config.seed).Label();
  Assertion bitmap{"auto backend resolves bitmap", true, ""};
  for (size_t k = 0; k < kDenseCorpora; ++k) {
    const CorpusShape one = ShapeOf(engines[k]->database(), "");
    shape.sequences += one.sequences;
    shape.events += one.events;
    shape.distinct_events += one.distinct_events;
    bitmap.ok &= one.auto_backend == "bitmap" && backends[k] == "bitmap";
    bitmap.detail += (k == 0 ? "" : "; ") + std::string("corpus ") +
                     std::to_string(k) + ": chooser " + one.auto_backend +
                     ", session " + backends[k];
  }
  shape.mean_occurrences = static_cast<double>(shape.events) /
                           static_cast<double>(shape.distinct_events);
  shape.auto_backend = bitmap.ok ? "bitmap" : "mixed";
  result->assertions.push_back(bitmap);
  result->write_bytes_per_event =
      static_cast<double>(written) / static_cast<double>(shape.events);

  // The timed phase is the sum of operation latencies: the repeated set-up
  // between operations is not part of it.
  double timed = 0.0;
  const Clock::time_point start = Clock::now();
  for (size_t op = 0;; ++op) {
    const double elapsed = SecondsSince(start);
    if (op % kCycle == 0) {
      if (elapsed >= config.seconds && op >= kMinOperations) break;
      if (elapsed >= config.max_seconds) break;
    }
    if (op > 0 && op % kOpsPerSetup == 0) {
      status = set_up();
      if (!status.ok()) return status;
    }
    const size_t slot = op % kCycle;
    const Engine& engine = *engines[slot / kDenseTasks];
    const DenseTask task = kDenseCycle[slot % kDenseTasks];
    RunReport report;
    size_t count = 0;
    const Clock::time_point op_start = Clock::now();
    Result<uint64_t> digest = uint64_t{0};
    {
      ScopedSpan span(tracer, "engine.mine", static_cast<int64_t>(op));
      digest = MineDense(engine, task, specmine::BackendChoice::kAuto,
                         &report, &count);
      tracer.AddChild(LayerSpan(task), span.id(), report.mine_seconds);
    }
    const double latency = SecondsSince(op_start);
    result->latencies_s.push_back(latency);
    timed += latency;
    ++result->attempted;
    if (!digest.ok() || *digest != reference[slot].digest ||
        count != reference[slot].count) {
      ++result->failed;
    }
    if (task == DenseTask::kRules || task == DenseTask::kBackwardRules) {
      tracer.Count("rulemine.premises",
                   static_cast<double>(report.premises_enumerated));
      tracer.Count("rulemine.candidates",
                   static_cast<double>(report.candidate_rules));
      tracer.Count("rulemine.rules_emitted",
                   static_cast<double>(report.rules_emitted));
    } else {
      tracer.Count("itermine.nodes_visited",
                   static_cast<double>(report.nodes_visited));
      tracer.Count("itermine.patterns_emitted",
                   static_cast<double>(report.patterns_emitted));
      tracer.Count("itermine.subtrees_pruned",
                   static_cast<double>(report.subtrees_pruned));
    }
  }
  result->timed_seconds = timed;
  result->peak_rss_mb = PeakRssMb();
  return Status::OK();
}

}  // namespace specbench
