#include "serve/json.hpp"

#include "core/json.hpp"  // core::to_json(Log2Histogram)

namespace g500::serve {

namespace {

/// Histogram + its interpolated SLO percentiles in one block.
util::Json hist_with_percentiles(const util::Log2Histogram& h) {
  util::Json j = core::to_json(h);
  const auto p = h.slo_percentiles();
  j["p50"] = p[0];
  j["p90"] = p[1];
  j["p99"] = p[2];
  return j;
}

/// The slot a '.'-separated report key names, creating the nested objects
/// on the way (Json::operator[] turns a null member into an object).
util::Json& at_path(util::Json& root, std::string_view key) {
  util::Json* node = &root;
  for (auto dot = key.find('.'); dot != std::string_view::npos;
       dot = key.find('.')) {
    node = &(*node)[std::string(key.substr(0, dot))];
    key.remove_prefix(dot + 1);
  }
  return (*node)[std::string(key)];
}

}  // namespace

util::Json to_json(const ServeConfig& config) {
  util::Json j = util::Json::object();
  j["schema_version"] = kServingSchemaVersion;
  j["queue_depth"] = static_cast<std::uint64_t>(config.queue_depth);
  j["batch_size"] = static_cast<std::uint64_t>(config.batch_size);
  j["cache_budget_bytes"] =
      static_cast<std::uint64_t>(config.cache_budget_bytes);
  util::Json facilities = util::Json::array();
  for (const auto f : config.facilities) facilities.push_back(f);
  j["facilities"] = std::move(facilities);
  util::Json oracle = util::Json::object();
  oracle["num_landmarks"] =
      static_cast<std::uint64_t>(config.oracle.num_landmarks);
  j["oracle"] = std::move(oracle);
  util::Json adaptive = util::Json::object();
  adaptive["enabled"] = config.adaptive;
  j["adaptive"] = std::move(adaptive);
  util::Json analytics = util::Json::object();
  util::Json pagerank = util::Json::object();
  pagerank["damping"] = config.analytics.pagerank.damping;
  pagerank["max_iters"] = config.analytics.pagerank.max_iters;
  pagerank["tolerance"] = config.analytics.pagerank.tolerance;
  analytics["pagerank"] = std::move(pagerank);
  j["analytics"] = std::move(analytics);
  j["graph_version"] = config.graph_version;
  return j;
}

util::Json to_json(const WorkloadConfig& config) {
  util::Json j = util::Json::object();
  j["schema_version"] = kServingSchemaVersion;
  j["seed"] = config.seed;
  j["ticks"] = config.ticks;
  j["arrivals_per_tick"] = config.arrivals_per_tick;
  j["zipf_s"] = config.zipf_s;
  j["nearest_fraction"] = config.nearest_fraction;
  j["deadline_ticks"] = config.deadline_ticks;
  j["analytics_fraction"] = config.analytics_fraction;
  j["root_universe"] = static_cast<std::uint64_t>(config.roots.size());
  j["num_vertices"] = config.num_vertices;
  return j;
}

util::Json to_json(const AvailabilityStats& stats) {
  util::Json j = util::Json::object();
  j["served"] = stats.served;
  j["degraded"] = stats.degraded;
  j["deadline_exceeded"] = stats.deadline_exceeded;
  j["failed"] = stats.failed;
  j["shed"] = stats.shed;
  j["availability"] = stats.availability();
  j["attempts"] = stats.attempts;
  j["wave_retries"] = stats.wave_retries;
  j["waves_abandoned"] = stats.waves_abandoned;
  j["breaker_opened"] = stats.breaker_opened;
  j["breaker_half_opened"] = stats.breaker_half_opened;
  j["breaker_closed"] = stats.breaker_closed;
  j["recovery_ticks"] = stats.recovery_ticks;
  j["backoff_seconds"] = stats.backoff_seconds;
  j["oracle_restored"] = stats.oracle_restored;
  return j;
}

util::Json to_json(const CacheStats& stats) {
  util::Json j = util::Json::object();
  j["hits"] = stats.hits;
  j["misses"] = stats.misses;
  j["hit_rate"] = stats.hit_rate();
  j["inserts"] = stats.inserts;
  j["evictions"] = stats.evictions;
  j["rejected"] = stats.rejected;
  j["version_misses"] = stats.version_misses;
  j["resident_entries"] = static_cast<std::uint64_t>(stats.resident_entries);
  j["resident_bytes"] = static_cast<std::uint64_t>(stats.resident_bytes);
  j["capacity_entries"] = static_cast<std::uint64_t>(stats.capacity_entries);
  return j;
}

util::Json to_json(const ServiceMetrics& metrics) {
  util::Json j = util::Json::object();
  j["schema_version"] = kServingSchemaVersion;
  for (const auto& f : kServiceCounterFields) {
    at_path(j, f.key) = metrics.*f.member;
  }
  for (const auto& f : kServiceDoubleFields) {
    at_path(j, f.key) = metrics.*f.member;
  }
  j["shed_rate"] =
      metrics.arrived == 0
          ? 0.0
          : static_cast<double>(metrics.shed) /
                static_cast<double>(metrics.arrived);
  j["latency_ticks"] = hist_with_percentiles(metrics.latency_ticks);
  j["batch_occupancy"] = hist_with_percentiles(metrics.batch_occupancy);
  j["queue_depth"] = hist_with_percentiles(metrics.queue_depth);
  j["cache"] = to_json(metrics.cache);
  // Per-class carve-out: the top-level counters cover BOTH classes; the
  // distance class is the difference (slo_violations is already
  // distance-only — the analytics class counts against its own target —
  // and only distance reads degrade).
  util::Json dist = util::Json::object();
  dist["arrived"] = metrics.arrived - metrics.analytics_arrived;
  dist["admitted"] = metrics.admitted - metrics.analytics_admitted;
  dist["shed"] = metrics.shed - metrics.analytics_shed;
  dist["answered"] = metrics.answered - metrics.analytics_answered;
  dist["slo_violations"] = metrics.slo_violations;
  dist["deadline_exceeded"] =
      metrics.deadline_exceeded - metrics.analytics_deadline_exceeded;
  dist["degraded"] = metrics.degraded;
  dist["failed"] = metrics.failed_queries - metrics.analytics_failed;
  dist["latency_ticks"] = hist_with_percentiles(metrics.latency_ticks);
  j["classes"]["distance"] = std::move(dist);
  util::Json& ana = j["classes"]["analytics"];
  util::Json per_kernel = util::Json::object();
  for (std::size_t k = 0; k < metrics.kernel_jobs.size(); ++k) {
    per_kernel[std::string(kernel_name(static_cast<AnalyticsKernel>(k)))] =
        metrics.kernel_jobs[k];
  }
  ana["kernel_jobs"] = std::move(per_kernel);
  ana["latency_ticks"] = hist_with_percentiles(metrics.analytics_latency_ticks);
  j["invalidation"]["version_misses"] = metrics.cache.version_misses;
  return j;
}

util::Json to_json(const ServingRunReport& report) {
  util::Json j = util::Json::object();
  j["schema_version"] = kServingSchemaVersion;
  j["ticks_run"] = report.ticks_run;
  j["wall_seconds"] = report.wall_seconds;
  j["graph_version"] = report.graph_version;
  j["throughput_qps"] = report.throughput_qps();
  j["wire_bytes"] = report.wire_bytes;
  j["relax_generated"] = report.relax_generated;
  j["relax_sent"] = report.relax_sent;
  j["pruned_expand"] = report.pruned_expand;
  j["pruned_apply"] = report.pruned_apply;
  j["metrics"] = to_json(report.metrics);
  j["availability"] = to_json(report.availability);
  return j;
}

}  // namespace g500::serve
