#include "core/json.hpp"

namespace g500::core {

util::Json to_json(const SsspConfig& config) {
  util::Json j = util::Json::object();
  j["delta"] = config.delta;
  j["coalesce"] = config.coalesce;
  j["hub_cache"] = config.hub_cache;
  j["direction"] = direction_name(config.direction);
  j["local_fusion"] = config.local_fusion;
  j["compress"] = config.compress;
  j["hierarchical_group"] = config.hierarchical_group;
  j["max_buckets"] = config.max_buckets;
  j["collect_bucket_trace"] = config.collect_bucket_trace;
  return j;
}

util::Json to_json(const BucketTraceRow& row) {
  util::Json j = util::Json::object();
  j["bucket"] = row.bucket;
  j["light_rounds"] = row.light_rounds;
  j["frontier_total"] = row.frontier_total;
  j["settled"] = row.settled;
  j["seconds"] = row.seconds;
  return j;
}

util::Json to_json(const util::Log2Histogram& hist) {
  util::Json j = util::Json::object();
  util::Json buckets = util::Json::array();
  for (const auto b : hist.buckets()) buckets.push_back(b);
  j["buckets"] = std::move(buckets);
  j["count"] = hist.total_count();
  j["sum"] = hist.total_sum();
  j["max"] = hist.max_value();
  j["mean"] = hist.mean();
  return j;
}

util::Json to_json(const ComponentsStats& stats) {
  util::Json j = util::Json::object();
  j["rounds"] = stats.rounds;
  j["labels_sent"] = stats.labels_sent;
  j["labels_applied"] = stats.labels_applied;
  j["seconds"] = stats.seconds;
  return j;
}

util::Json to_json(const PageRankStats& stats) {
  util::Json j = util::Json::object();
  j["iterations"] = stats.iterations;
  j["contribs_gathered"] = stats.contribs_gathered;
  j["residual"] = stats.residual;
  j["converged"] = stats.converged;
  j["seconds"] = stats.seconds;
  return j;
}

util::Json to_json(const KCoreStats& stats) {
  util::Json j = util::Json::object();
  j["rounds"] = stats.rounds;
  j["levels"] = stats.levels;
  j["peeled"] = stats.peeled;
  j["decrements_sent"] = stats.decrements_sent;
  j["decrements_applied"] = stats.decrements_applied;
  j["max_core"] = stats.max_core;
  j["seconds"] = stats.seconds;
  return j;
}

util::Json to_json(const SsspStats& stats) {
  util::Json j = util::Json::object();
  j["schema_version"] = kSsspStatsSchemaVersion;
  for (const auto& f : kSsspCounterFields) j[f.key] = stats.*f.member;
  for (const auto& f : kSsspDoubleFields) j[f.key] = stats.*f.member;
  j["frontier_hist"] = to_json(stats.frontier_hist);
  if (!stats.bucket_trace.empty()) {
    util::Json trace = util::Json::array();
    for (const auto& row : stats.bucket_trace) trace.push_back(to_json(row));
    j["bucket_trace"] = std::move(trace);
  }
  return j;
}

util::Json to_json(const RootRun& run) {
  util::Json j = util::Json::object();
  j["root"] = run.root;
  j["seconds"] = run.seconds;
  j["teps"] = run.teps;
  j["valid"] = run.valid;
  j["reachable"] = run.reachable;
  j["attempts"] = run.attempts;
  j["recovered"] = run.recovered;
  return j;
}

util::Json to_json(const BenchmarkReport& report) {
  util::Json j = util::Json::object();
  j["schema_version"] = kBenchmarkReportSchemaVersion;
  j["num_vertices"] = report.num_vertices;
  j["num_input_edges"] = report.num_input_edges;
  j["num_directed_edges"] = report.num_directed_edges;
  j["num_ranks"] = report.num_ranks;
  j["all_valid"] = report.all_valid;
  j["harmonic_mean_teps"] = report.harmonic_mean_teps;
  j["mean_seconds"] = report.mean_seconds;
  j["min_seconds"] = report.min_seconds;
  j["max_seconds"] = report.max_seconds;
  j["recovered_roots"] = report.recovered_roots;
  j["failed_roots"] = report.failed_roots;
  j["backoff_seconds"] = report.backoff_seconds;
  util::Json backoffs = util::Json::array();
  for (const auto d : report.attempt_backoffs) backoffs.push_back(d);
  j["attempt_backoffs"] = std::move(backoffs);
  util::Json runs = util::Json::array();
  for (const auto& run : report.runs) runs.push_back(to_json(run));
  j["runs"] = std::move(runs);
  j["stats"] = to_json(report.stats);
  return j;
}

}  // namespace g500::core
