#include "src/server/metrics.h"

#include "src/support/json_writer.h"

namespace specmine {

namespace {

void AppendHelp(std::string& out, const char* name, const char* type,
                const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void AppendValue(std::string& out, uint64_t value) {
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

}  // namespace

void ServerMetrics::RecordRequest(const std::string& route, int http_status,
                                  double seconds) {
  RouteSeries* series = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<RouteSeries>& slot = routes_[route];
    if (slot == nullptr) slot = std::make_unique<RouteSeries>();
    slot->requests_by_status[http_status] += 1;
    series = slot.get();
  }
  series->latency.Observe(seconds);
}

void ServerMetrics::RecordMine(const std::string& backend,
                               std::optional<bool> index_cache_hit,
                               uint64_t patterns_emitted,
                               uint64_t rules_emitted) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    backends_[backend.empty() ? "none" : backend] += 1;
  }
  if (index_cache_hit.has_value()) {
    (*index_cache_hit ? index_cache_hits_ : index_cache_misses_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  patterns_emitted_.fetch_add(patterns_emitted, std::memory_order_relaxed);
  rules_emitted_.fetch_add(rules_emitted, std::memory_order_relaxed);
}

std::string ServerMetrics::Render(const ScrapeGauges& gauges) const {
  std::string out;
  out.reserve(4096);
  std::lock_guard<std::mutex> lock(mu_);

  AppendHelp(out, "specmined_requests_total", "counter",
             "Requests finished, by route and HTTP status code.");
  for (const auto& [route, series] : routes_) {
    for (const auto& [status, count] : series->requests_by_status) {
      out += "specmined_requests_total{route=\"" + JsonEscape(route) +
             "\",code=\"" + std::to_string(status) + "\"}";
      AppendValue(out, count);
    }
  }

  AppendHelp(out, "specmined_request_duration_seconds", "histogram",
             "Wall-clock request latency, by route.");
  for (const auto& [route, series] : routes_) {
    const std::string label = "{route=\"" + JsonEscape(route) + "\"";
    BucketHistogram::Snapshot snap = series->latency.Snap();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < snap.bucket_counts.size(); ++i) {
      cumulative += snap.bucket_counts[i];
      out += "specmined_request_duration_seconds_bucket" + label + ",le=\"";
      out += i < snap.upper_bounds.size() ? JsonDouble(snap.upper_bounds[i])
                                          : std::string("+Inf");
      out += "\"}";
      AppendValue(out, cumulative);
    }
    out += "specmined_request_duration_seconds_sum" + label + "} " +
           JsonDouble(snap.sum) + "\n";
    out += "specmined_request_duration_seconds_count" + label + "}";
    AppendValue(out, snap.count);
  }

  AppendHelp(out, "specmined_requests_in_flight", "gauge",
             "Requests currently being served (all routes).");
  out += "specmined_requests_in_flight " +
         std::to_string(in_flight_.load(std::memory_order_relaxed)) + "\n";

  AppendHelp(out, "specmined_mines_in_flight", "gauge",
             "Mining tasks currently holding an admission slot.");
  out += "specmined_mines_in_flight";
  AppendValue(out, gauges.mines_in_flight);

  AppendHelp(out, "specmined_mine_queue_depth", "gauge",
             "Mining requests waiting for an admission slot.");
  out += "specmined_mine_queue_depth";
  AppendValue(out, gauges.mine_queue_depth);

  AppendHelp(out, "specmined_admission_rejected_total", "counter",
             "Mining requests shed by the admission gate (HTTP 429).");
  out += "specmined_admission_rejected_total";
  AppendValue(out, rejected_.load(std::memory_order_relaxed));

  AppendHelp(out, "specmined_index_cache_hits_total", "counter",
             "Mines served from an already-built corpus index.");
  out += "specmined_index_cache_hits_total";
  AppendValue(out, index_cache_hits_.load(std::memory_order_relaxed));

  AppendHelp(out, "specmined_index_cache_misses_total", "counter",
             "Mines that paid for an index build (cold corpus cache).");
  out += "specmined_index_cache_misses_total";
  AppendValue(out, index_cache_misses_.load(std::memory_order_relaxed));

  AppendHelp(out, "specmined_mine_backend_total", "counter",
             "Completed mines by resolved counting backend ('none' for "
             "miners that use no counting index).");
  for (const auto& [backend, count] : backends_) {
    out += "specmined_mine_backend_total{backend=\"" + JsonEscape(backend) +
           "\"}";
    AppendValue(out, count);
  }

  AppendHelp(out, "specmined_patterns_emitted_total", "counter",
             "Patterns emitted across all completed mines.");
  out += "specmined_patterns_emitted_total";
  AppendValue(out, patterns_emitted_.load(std::memory_order_relaxed));

  AppendHelp(out, "specmined_rules_emitted_total", "counter",
             "Rules emitted across all completed mines.");
  out += "specmined_rules_emitted_total";
  AppendValue(out, rules_emitted_.load(std::memory_order_relaxed));

  AppendHelp(out, "specmined_corpus_appends_total", "counter",
             "Committed corpus appends (POST /corpora/{name}/append).");
  out += "specmined_corpus_appends_total";
  AppendValue(out, appends_.load(std::memory_order_relaxed));

  AppendHelp(out, "specmined_corpus_appended_traces_total", "counter",
             "Traces appended across all committed appends.");
  out += "specmined_corpus_appended_traces_total";
  AppendValue(out, appended_traces_.load(std::memory_order_relaxed));

  AppendHelp(out, "specmined_corpus_generation", "gauge",
             "Manifest generation per registered corpus (bumped by every "
             "committed append; 0 for unsharded corpora).");
  for (const auto& [corpus, generation] : gauges.corpus_generations) {
    out += "specmined_corpus_generation{corpus=\"" + JsonEscape(corpus) +
           "\"}";
    AppendValue(out, generation);
  }

  AppendHelp(out, "specmined_corpora", "gauge",
             "Corpora currently registered.");
  out += "specmined_corpora";
  AppendValue(out, gauges.corpora);

  AppendHelp(out, "specmined_quarantined_shards", "gauge",
             "Shards quarantined across all registered corpora.");
  out += "specmined_quarantined_shards";
  AppendValue(out, gauges.quarantined_shards);

  return out;
}

}  // namespace specmine
