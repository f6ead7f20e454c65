// specbench — the benchmark binary behind specbench/run.py.
//
//   specbench gen --workload W --seed N --dir D
//       writes the seeded inputs of workload W into D;
//   specbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 --server PATH --out RESULT.json [--spans SPANS.jsonl]
//       set-up, timed phase and output checks; writes one result document.
//
// With --trace 1 the run is two phases of S/2 seconds each: one untraced
// (the reference for the tracing overhead) and one traced, whose spans and
// counters give the per-layer metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "specbench/bench_common.h"
#include "specbench/workloads.h"
#include "src/itermine/simd_kernels.h"
#include "src/support/json_writer.h"
#include "src/support/version.h"

namespace specbench {
namespace {

// How a per-layer metric is derived from the traced phase.
enum class Source { kSpanMedian, kCounterMedian, kCounterMean, kRatio };

struct LayerMetric {
  const char* name;
  Source source;
  const char* key;          // Span or counter name (numerator for kRatio).
  const char* denominator;  // kRatio only.
};

// Every per-layer metric BENCHMARK.json lists, except the tracing overhead
// (computed from both phases). A metric whose layer the workload does not
// exercise reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"trace.pack_ms", Source::kSpanMedian, "trace.pack", nullptr},
    {"trace.open_ms", Source::kSpanMedian, "trace.open", nullptr},
    {"trace.append_ms", Source::kSpanMedian, "trace.append", nullptr},
    {"trace.bytes_written", Source::kCounterMean, "trace.bytes_written",
     nullptr},
    {"itermine.index_build_ms", Source::kSpanMedian, "itermine.index_build",
     nullptr},
    {"itermine.index_rss_mb", Source::kCounterMedian, "itermine.index_rss_mb",
     nullptr},
    {"itermine.full_ms", Source::kSpanMedian, "itermine.full", nullptr},
    {"itermine.closed_ms", Source::kSpanMedian, "itermine.closed", nullptr},
    {"itermine.generators_ms", Source::kSpanMedian, "itermine.generators",
     nullptr},
    {"itermine.nodes_visited", Source::kCounterMean, "itermine.nodes_visited",
     nullptr},
    {"itermine.patterns_emitted", Source::kCounterMean,
     "itermine.patterns_emitted", nullptr},
    {"itermine.subtrees_pruned", Source::kCounterMean,
     "itermine.subtrees_pruned", nullptr},
    {"itermine.emit_per_node", Source::kRatio, "itermine.patterns_emitted",
     "itermine.nodes_visited"},
    {"rulemine.rules_ms", Source::kSpanMedian, "rulemine.rules", nullptr},
    {"rulemine.premises", Source::kCounterMean, "rulemine.premises", nullptr},
    {"rulemine.candidates", Source::kCounterMean, "rulemine.candidates",
     nullptr},
    {"rulemine.rules_emitted", Source::kCounterMean, "rulemine.rules_emitted",
     nullptr},
    {"rulemine.yield", Source::kRatio, "rulemine.rules_emitted",
     "rulemine.candidates"},
    {"seqmine.closed_ms", Source::kSpanMedian, "seqmine.closed", nullptr},
    {"engine.sharded_mine_ms", Source::kSpanMedian, "engine.sharded_mine",
     nullptr},
    {"engine.shards_scanned", Source::kCounterMean, "engine.shards_scanned",
     nullptr},
    {"engine.shards_cached", Source::kCounterMean, "engine.shards_cached",
     nullptr},
    {"engine.p1c_hit_ratio", Source::kRatio, "engine.shards_cached",
     "engine.shards_total"},
    {"engine.phase1_nodes", Source::kCounterMean, "engine.phase1_nodes",
     nullptr},
    {"engine.cold_sharded_mine_ms", Source::kSpanMedian,
     "engine.cold_sharded_mine", nullptr},
    {"engine.serialize_ms", Source::kCounterMedian, "engine.serialize_ms",
     nullptr},
    {"engine.response_bytes", Source::kCounterMean, "engine.response_bytes",
     nullptr},
    {"server.request_ms", Source::kCounterMean, "server.request_ms", nullptr},
    {"server.client_gap_ms", Source::kCounterMean, "server.client_gap_ms",
     nullptr},
    {"server.admission_rejected", Source::kCounterMean,
     "server.admission_rejected", nullptr},
    {"server.index_cache_hits", Source::kCounterMean,
     "server.index_cache_hits", nullptr},
    {"server.index_cache_misses", Source::kCounterMean,
     "server.index_cache_misses", nullptr},
};

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

void FillLayers(const Tracer& tracer, PhaseResult* result) {
  for (const LayerMetric& m : kLayerMetrics) {
    double value = 0.0;
    switch (m.source) {
      case Source::kSpanMedian:
        value = Median(tracer.DurationsMs(m.key));
        break;
      case Source::kCounterMedian:
        value = Median(tracer.Counter(m.key));
        break;
      case Source::kCounterMean:
        value = Mean(tracer.Counter(m.key));
        break;
      case Source::kRatio: {
        const double den = Sum(tracer.Counter(m.denominator));
        value = den == 0.0 ? 0.0 : Sum(tracer.Counter(m.key)) / den;
        break;
      }
    }
    result->layers[m.name] = value;
  }
}

specmine::Status RunPhase(const RunConfig& config, Tracer& tracer,
                          PhaseResult* result) {
  if (config.workload == "batch-dense") {
    return RunBatchDense(config, tracer, result);
  }
  if (config.workload == "append-remine") {
    return RunAppendRemine(config, tracer, result);
  }
  if (config.workload == "server-sparse") {
    return RunServerSparse(config, tracer, result);
  }
  return specmine::Status::InvalidArgument("unknown workload '" +
                                           config.workload + "'");
}

void WriteShape(specmine::JsonWriter& w, const CorpusShape& shape,
                uint64_t seed) {
  w.Key("corpus").BeginObject();
  w.Field("seed", seed);
  w.Field("generator", shape.generator);
  w.Field("sequences", static_cast<uint64_t>(shape.sequences));
  w.Field("events", static_cast<uint64_t>(shape.events));
  w.Field("distinct_events", static_cast<uint64_t>(shape.distinct_events));
  w.Field("mean_occurrences_per_event", shape.mean_occurrences);
  w.Field("auto_backend", shape.auto_backend);
  w.EndObject();
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Run(const RunConfig& config, bool trace, const std::string& out_path,
        const std::string& spans_path) {
  PhaseResult untraced, traced;
  Tracer off(false), on(true);
  RunConfig phase = config;
  if (trace) phase.seconds = config.seconds / 2;
  phase.max_seconds = 2 * phase.seconds;
  specmine::Status status = RunPhase(phase, off, &untraced);
  if (status.ok() && trace) {
    status = RunPhase(phase, on, &traced);
    if (status.ok()) FillLayers(on, &traced);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "specbench: %s failed: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  const PhaseResult& e2e = untraced;
  uint64_t attempted = untraced.attempted + traced.attempted;
  uint64_t failed = untraced.failed + traced.failed;
  bool assertions_hold = true;
  for (const PhaseResult* p : {&untraced, &traced}) {
    for (const Assertion& a : p->assertions) assertions_hold &= a.ok;
  }

  std::string doc;
  specmine::JsonWriter w(&doc);
  w.BeginObject();
  w.Field("workload", config.workload);
  w.Field("seed", config.seed);
  w.Field("trace", trace);
  w.Field("seconds", config.seconds);
  w.Key("env").BeginObject();
  w.Field("library_revision", specmine::GitRevision());
  w.Field("compiler", CompilerName());
  w.Field("simd_dispatch", specmine::SimdDispatchLevel());
  w.Field("hardware_concurrency",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.Field("load_threads", static_cast<uint64_t>(e2e.load_threads));
  w.EndObject();
  WriteShape(w, e2e.shape, config.seed);
  w.Key("assertions").BeginArray();
  for (const PhaseResult* p : {&untraced, &traced}) {
    for (const Assertion& a : p->assertions) {
      w.BeginObject();
      w.Field("name", a.name);
      w.Field("ok", a.ok);
      w.Field("detail", a.detail);
      w.EndObject();
    }
  }
  w.EndArray();
  w.Field("correct", assertions_hold && failed == 0);
  w.Field("attempted", attempted);
  w.Field("failed", failed);
  w.Field("samples", static_cast<uint64_t>(e2e.latencies_s.size()));
  w.Key("setup_s").BeginArray();
  for (double s : e2e.setup_s) w.Double(s);
  w.EndArray();
  // In completion order, so drift within a run stays visible.
  w.Key("latencies_ms").BeginArray();
  for (double s : e2e.latencies_s) w.Double(s * 1e3);
  w.EndArray();

  w.Key("end_to_end").BeginObject();
  w.Field("setup_s", Median(e2e.setup_s));
  w.Field("ops_per_s", static_cast<double>(e2e.latencies_s.size()) /
                           e2e.timed_seconds);
  w.Field("latency_p50_ms", Quantile(e2e.latencies_s, 0.5) * 1e3);
  w.Field("latency_p99_ms", Quantile(e2e.latencies_s, 0.99) * 1e3);
  w.Field("failed_frac", attempted == 0 ? 1.0
                                        : static_cast<double>(failed) /
                                              static_cast<double>(attempted));
  w.Field("peak_rss_mb", e2e.peak_rss_mb);
  w.Field("write_bytes_per_event", e2e.write_bytes_per_event);
  w.EndObject();

  if (trace) {
    w.Key("per_layer").BeginObject();
    for (const auto& [name, value] : traced.layers) w.Field(name, value);
    const double untraced_p50 = Quantile(untraced.latencies_s, 0.5);
    w.Field("tracing.overhead_ratio",
            untraced_p50 == 0.0
                ? 0.0
                : Quantile(traced.latencies_s, 0.5) / untraced_p50 - 1.0);
    w.EndObject();
    w.Key("self_time_ms").BeginObject();
    for (const auto& [layer, ms] : on.SelfTimeMsByLayer()) w.Field(layer, ms);
    w.EndObject();
    if (!spans_path.empty()) on.WriteSpans(spans_path);
  }
  w.EndObject();
  w.Finish();

  std::ofstream out(out_path);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "specbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: specbench gen --workload W --seed N --dir D\n"
               "       specbench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D --server PATH --out FILE "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace
}  // namespace specbench

int main(int argc, char** argv) {
  using specbench::RunConfig;
  if (argc < 2) return specbench::Usage();
  const std::string command = argv[1];
  RunConfig config;
  bool trace = false;
  std::string out, spans;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--dir") {
      config.work_dir = value;
    } else if (flag == "--server") {
      config.server_binary = value;
    } else if (flag == "--out") {
      out = value;
    } else if (flag == "--spans") {
      spans = value;
    } else {
      return specbench::Usage();
    }
  }
  if (config.workload.empty() || config.work_dir.empty()) {
    return specbench::Usage();
  }
  if (command == "gen") {
    specmine::Status status =
        specbench::Generate(config.workload, config.seed, config.work_dir);
    if (!status.ok()) {
      std::fprintf(stderr, "specbench gen: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command != "run" || out.empty() || config.seconds <= 0) {
    return specbench::Usage();
  }
  config.load_threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  return specbench::Run(config, trace, out, spans);
}
