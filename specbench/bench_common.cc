#include "specbench/bench_common.h"

#include <cmath>
#include <cstring>
#include <fstream>

#include "src/support/json_writer.h"

namespace specbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------

int64_t Tracer::Begin(std::string_view name, int64_t op, int64_t parent) {
  if (!enabled_) return -1;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(name), now, now, parent, op});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::AddChild(std::string_view name, int64_t parent, double seconds) {
  if (!enabled_ || parent < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& up = spans_[static_cast<size_t>(parent)];
  const int64_t start = up.start_ns;
  const int64_t op = up.op;
  spans_.push_back(Span{std::string(name), start,
                        start + static_cast<int64_t>(seconds * 1e9), parent,
                        op});
}

void Tracer::Count(std::string_view name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::vector<double>()).first;
  }
  it->second.push_back(value);
}

std::vector<double> Tracer::DurationsMs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<double> Tracer::Counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? std::vector<double>() : it->second;
}

std::map<std::string, double> Tracer::SelfTimeMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    const int64_t self =
        std::max<int64_t>(0, span.end_ns - span.start_ns - child_ns[i]);
    out[layer] += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << specmine::JsonEscape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

uint64_t MixDigest(uint64_t digest, uint64_t value) {
  // splitmix64 finalizer over the running state.
  uint64_t z = digest ^ (value + 0x9e3779b97f4a7c15ULL + (digest << 6) +
                         (digest >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t MixDigest(uint64_t digest, std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the bytes.
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return MixDigest(digest, h);
}

namespace {

uint64_t MixPattern(uint64_t digest, const specmine::Pattern& pattern,
                    const specmine::EventDictionary& dict) {
  digest = MixDigest(digest, static_cast<uint64_t>(pattern.size()));
  for (specmine::EventId ev : pattern) digest = MixDigest(digest, dict.Name(ev));
  return digest;
}

}  // namespace

bool DigestPatternSink::Consume(const specmine::Pattern& pattern,
                                uint64_t support) {
  digest_ = MixDigest(MixPattern(digest_, pattern, dict_), support);
  ++count_;
  return true;
}

bool DigestRuleSink::Consume(const specmine::Rule& rule) {
  digest_ = MixPattern(digest_, rule.premise, dict_);
  digest_ = MixPattern(digest_, rule.consequent, dict_);
  digest_ = MixDigest(digest_, rule.s_support);
  digest_ = MixDigest(digest_, rule.i_support);
  digest_ = MixDigest(digest_, rule.premise_points);
  digest_ = MixDigest(digest_, rule.satisfied_points);
  ++count_;
  return true;
}

// ---------------------------------------------------------------------------

namespace {

std::string ProcPath(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

// The numeric value of the "<key>" line of a procfs key/value file.
double ProcField(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtod(line.c_str() + key_len, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb(int pid) {
  return ProcField(ProcPath(pid, "status"), "VmHWM:") / 1024.0;
}

double CurrentRssMb(int pid) {
  return ProcField(ProcPath(pid, "status"), "VmRSS:") / 1024.0;
}

uint64_t WrittenBytes() {
  return static_cast<uint64_t>(ProcField(ProcPath(0, "io"), "wchar:"));
}

}  // namespace specbench
