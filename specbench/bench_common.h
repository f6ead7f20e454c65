// Shared pieces of the end-to-end benchmark: the span tracer, order
// statistics, emission-order digest sinks, and readers for the process
// counters (/proc/<pid>/status, /proc/<pid>/io) the metrics are built on.
//
// Spans are recorded by the benchmark around its calls into the library's
// public API, never inside the library: a span names the layer the call
// lands in ("itermine.full", "trace.append", ...), its parent span and the
// operation it belongs to. They are kept in memory and written out when
// the run ends; with tracing off a ScopedSpan reads no clock at all.

#ifndef SPECBENCH_BENCH_COMMON_H_
#define SPECBENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/sinks.h"
#include "src/trace/event_dictionary.h"

namespace specbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Order statistics.

/// Linear-interpolated quantile q in [0, 1] of \p values (copied).
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
double Mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Tracing.

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "itermine.closed".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // Index of the parent span, -1 for a root.
  int64_t op = -1;      // Operation id, -1 for set-up work.
};

/// Collects spans and per-call counters. Thread-safe (the server workload
/// records from every client thread). Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (or -1 when disabled).
  int64_t Begin(std::string_view name, int64_t op, int64_t parent = -1);
  void End(int64_t id);
  /// Records a span whose duration is known but not its clock position
  /// (a RunReport or server-side timing): it is laid at the start of
  /// \p parent, which is enough for self-time accounting.
  void AddChild(std::string_view name, int64_t parent, double seconds);

  /// Records one sample of a per-call counter ("itermine.nodes_visited").
  void Count(std::string_view name, double value);

  /// Durations in milliseconds of every span named \p name.
  std::vector<double> DurationsMs(std::string_view name) const;
  std::vector<double> Counter(std::string_view name) const;

  /// Self time per layer (the name's prefix up to the first '.'): each
  /// span's duration minus the part its children cover, summed, in ms.
  std::map<std::string, double> SelfTimeMsByLayer() const;

  /// Writes every span as one JSON object per line to \p path.
  bool WriteSpans(const std::string& path) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;  // Guards spans_ and counters_.
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>, std::less<>> counters_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, int64_t op,
             int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, op, parent) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Emission-order digests. Both hash event *names*, so a digest computed on
// one process's dictionary compares with another's.

uint64_t MixDigest(uint64_t digest, uint64_t value);
uint64_t MixDigest(uint64_t digest, std::string_view bytes);

/// Counts patterns and folds (names, support) into an order-sensitive
/// digest.
class DigestPatternSink : public specmine::PatternSink {
 public:
  explicit DigestPatternSink(const specmine::EventDictionary& dict)
      : dict_(dict) {}
  bool Consume(const specmine::Pattern& pattern, uint64_t support) override;
  uint64_t digest() const { return digest_; }
  size_t count() const { return count_; }

 private:
  const specmine::EventDictionary& dict_;
  uint64_t digest_ = 0;
  size_t count_ = 0;
};

/// Counts rules and folds every rule field into an order-sensitive digest.
class DigestRuleSink : public specmine::RuleSink {
 public:
  explicit DigestRuleSink(const specmine::EventDictionary& dict)
      : dict_(dict) {}
  bool Consume(const specmine::Rule& rule) override;
  uint64_t digest() const { return digest_; }
  size_t count() const { return count_; }

 private:
  const specmine::EventDictionary& dict_;
  uint64_t digest_ = 0;
  size_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Process counters (Linux procfs; 0 when unavailable).

/// VmHWM (peak resident set) of process \p pid (0 = self), in MB.
double PeakRssMb(int pid = 0);
/// VmRSS (current resident set) of process \p pid (0 = self), in MB.
double CurrentRssMb(int pid = 0);
/// The wchar field of /proc/self/io: bytes this process passed to write().
uint64_t WrittenBytes();

}  // namespace specbench

#endif  // SPECBENCH_BENCH_COMMON_H_
