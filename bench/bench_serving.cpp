// S1 — Online distance-query serving: micro-batching, caching, SLO.
//
// Three questions a serving deployment of the SSSP engine must answer:
//
//   (a) What does micro-batching buy?  A warm-cache drain of the same
//       query set at batch sizes 1..16: batching amortizes the per-batch
//       answer-extraction exchange (and, cold, dedupes roots into shared
//       waves), so throughput must rise with the batch size — the run
//       fails unless batch 8's median over kWarmSamples drains reaches
//       --min-speedup x batch 1's.
//   (b) What does the root-result cache buy?  The cold sweep (budget 0)
//       isolates the dedup-only effect; the open-loop run reports the
//       cache hit rate a Zipf workload sustains.
//   (c) Does the service hold its SLO under open-loop load?  Poisson
//       arrivals with Zipf popularity: p50/p90/p99 latency ticks, queue
//       depth, shed rate, throughput.
//   (d) What does the landmark (ALT) oracle buy?  The same cold point
//       queries with the oracle off (full wave per root) and on
//       (goal-directed pruned waves, exact hits and unreachability proofs
//       settled from bounds): answers must stay bit-identical while total
//       relaxations and wire bytes both drop.
//   (e) Does adaptive batching earn its keep?  The open-loop workload at
//       every fixed batch size vs the rate-tracking controller: the
//       adaptive run must match or beat the best fixed p99.
//   (f) Does serving survive faults?  The chaos sweep: the same workload
//       through the resilient driver under an injected crash/corrupt/
//       stall schedule, against a fault-free reference.  Gates:
//       availability >= --avail-floor, every exact (kServed) answer
//       bit-identical to the reference, every degraded answer bracketed
//       by its oracle lb/ub, and a restarted service adopting the
//       persisted oracle slices with ZERO precompute waves.
//   (g) Does the multi-kernel mixed workload hold up?  A YCSB-style mix
//       (--analytics-fraction of arrivals are PageRank / k-core /
//       components / reachability jobs) through the same service:
//       per-class latency percentiles and shed/degraded counts land in
//       the report, and every kernel's validation digest must match a
//       sequential reference bit for bit (kernels_validated gate).  A
//       kernel the trace served no job of gets one job after the trace,
//       so the gate covers every kernel at any --ticks.
//
// Everything lands in BENCH_serving.json (schema: docs/serving.md), gated
// in CI by scripts/check_report_schema.py.
#include <algorithm>
#include <array>
#include <functional>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/kernels.hpp"

#include "bench_util.hpp"
#include "serve/driver.hpp"
#include "serve/json.hpp"
#include "util/options.hpp"

namespace {

using namespace g500;

struct SweepRow {
  std::size_t batch = 0;
  serve::ServingRunReport run;
};

/// Warm drains timed per batch size.  One drain takes milliseconds, so a
/// single one swings with whatever else the host runs; the table and the
/// speedup gate read the median.
constexpr int kWarmSamples = 5;

double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// One service per batch size: prime the cache with every universe root
/// (counted separately), then measure a drain of `queries` arrivals.
SweepRow measure_batch(simmpi::Comm& comm, const graph::DistGraph& g,
                       const serve::ServeConfig& base,
                       const serve::WorkloadConfig& wl, std::size_t batch,
                       bool warm) {
  serve::ServeConfig config = base;
  config.batch_size = batch;
  if (!warm) config.cache_budget_bytes = 0;
  // Drain mode: the whole query set is pending from tick 0, so the queue
  // must admit it all; latency then measures batching delay only.
  serve::WorkloadConfig wcfg = wl;
  wcfg.ticks = 1;
  wcfg.arrivals_per_tick = static_cast<double>(wl.ticks) * wl.arrivals_per_tick;
  config.queue_depth = static_cast<std::size_t>(
      wcfg.arrivals_per_tick * 4.0 + 64.0);

  const serve::Workload workload(wcfg);
  serve::DistanceService service(comm, g, config);
  if (warm) {
    // Prime the cache with one query per universe root; run_workload's
    // reset_metrics() below excludes the priming cost from the measurement.
    std::uint64_t id = 0;
    for (const auto root : wl.roots) {
      serve::Query q;
      q.id = id++;
      q.root = root;
      q.target = root;
      (void)service.submit(q);
    }
    (void)service.drain(0);
  }
  SweepRow row;
  row.batch = batch;
  row.run = serve::run_workload(comm, g, config, workload,
                                /*keep_answers=*/false, &service);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int scale = static_cast<int>(options.get_int("scale", 14));
  const int ranks = static_cast<int>(options.get_int("ranks", 8));
  const int universe = static_cast<int>(options.get_int("universe", 32));
  const std::uint64_t ticks =
      static_cast<std::uint64_t>(options.get_int("ticks", 64));
  const double lambda = options.get_double("lambda", 4.0);
  const double zipf = options.get_double("zipf", 1.2);
  const double min_speedup = options.get_double("min-speedup", 2.0);
  const int landmarks = static_cast<int>(options.get_int("landmarks", 8));
  const std::uint64_t oracle_queries =
      static_cast<std::uint64_t>(options.get_int("oracle-queries", 24));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(options.get_int("seed", 0x5e21));
  const double avail_floor = options.get_double("avail-floor", 0.9);
  const int chaos_crashes = static_cast<int>(options.get_int("chaos-crashes", 3));
  const int chaos_corruptions =
      static_cast<int>(options.get_int("chaos-corruptions", 1));
  const int chaos_stalls = static_cast<int>(options.get_int("chaos-stalls", 2));
  const std::uint64_t chaos_horizon =
      static_cast<std::uint64_t>(options.get_int("chaos-horizon", 800));
  const double analytics_fraction =
      options.get_double("analytics-fraction", 0.25);

  graph::KroneckerParams params;
  params.scale = scale;

  bench::RunReport report("serving", options);
  util::Table warm_table({"batch", "median qps", "speedup", "waves",
                          "fetch rounds", "hit rate", "p50", "p99"});
  util::Table cold_table({"batch", "qps", "waves", "waves/query"});
  util::Table oracle_table({"oracle", "waves", "pruned waves", "direct",
                            "relax generated", "wire bytes"});
  util::Table adaptive_table({"policy", "batch", "p50", "p99", "shed",
                              "answered"});
  const std::size_t batches[] = {1, 2, 4, 8, 16};

  // Rank 0's warm drain throughput, kWarmSamples per batch size.
  std::vector<std::vector<double>> warm_qps(std::size(batches));
  double qps_b1 = 0.0;
  double qps_b8 = 0.0;
  double openloop_hit_rate = 0.0;
  bool oracle_bit_identical = false;
  double relax_reduction = 0.0;
  double wire_reduction = 0.0;
  std::size_t best_fixed_batch = 0;
  double best_fixed_p99 = 0.0;
  double adaptive_p99 = 0.0;
  bool adaptive_ok = false;
  bool ok = true;

  // Exports for the chaos phase, which drives World::run itself (the
  // retry loop must live outside the simulated machine).
  std::vector<graph::VertexId> chaos_roots;
  graph::VertexId chaos_num_vertices = 0;
  std::size_t chaos_slice_entries = 0;

  // Exports for the mixed-workload phase: kernel digests observed by the
  // service, compared after the run against host-side sequential
  // references over the identical edge list.
  std::array<std::uint64_t, serve::kNumAnalyticsKernels> mixed_digest{};
  std::array<bool, serve::kNumAnalyticsKernels> mixed_seen{};
  std::array<std::uint64_t, serve::kNumAnalyticsKernels> mixed_kernel_jobs{};
  // Kernels the trace served no job of, each given one job after it.
  std::vector<std::string> mixed_topped_up;
  // Each reachability pair: {root, target, value, digest}.
  std::vector<std::array<std::uint64_t, 4>> mixed_reach;
  std::array<double, 3> mixed_dist_p{};
  std::array<double, 3> mixed_ana_p{};

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_kronecker(comm, params);
    const auto roots =
        core::sample_roots(comm, g, universe, seed ^ 0x9500);
    if (roots.empty()) throw std::runtime_error("no eligible roots");
    if (comm.rank() == 0) {
      chaos_roots = roots;
      chaos_num_vertices = g.num_vertices;
      chaos_slice_entries = g.part.count(0);
    }

    serve::WorkloadConfig wl;
    wl.seed = seed;
    wl.ticks = ticks;
    wl.arrivals_per_tick = lambda;
    wl.zipf_s = zipf;
    wl.roots = roots;
    wl.num_vertices = g.num_vertices;

    serve::ServeConfig base;
    base.max_wait_ticks = 4;
    // Warm sweep budget: the whole universe fits (widest slice x roots).
    base.cache_budget_bytes =
        g.part.count(0) * sizeof(graph::Weight) * (roots.size() + 1);

    // ---- (a) warm batch sweep ---------------------------------------
    // The sizes take turns, so a slow spell of the host falls on all of
    // them.  Everything but the wall-clock rate repeats sample to sample,
    // so the table takes the rest from the last drain.
    std::vector<SweepRow> last(std::size(batches));
    for (int sample = 0; sample < kWarmSamples; ++sample) {
      for (std::size_t i = 0; i < std::size(batches); ++i) {
        last[i] = measure_batch(comm, g, base, wl, batches[i], /*warm=*/true);
        if (comm.rank() == 0) {
          warm_qps[i].push_back(last[i].run.throughput_qps());
        }
      }
    }
    for (std::size_t i = 0; i < std::size(batches); ++i) {
      const auto b = batches[i];
      const auto& row = last[i];
      const auto& m = row.run.metrics;
      if (comm.rank() == 0) {
        const double qps = median(warm_qps[i]);
        if (b == 1) qps_b1 = qps;
        if (b == 8) qps_b8 = qps;
        const auto p = m.latency_ticks.slo_percentiles();
        warm_table.row()
            .add(static_cast<std::uint64_t>(b))
            .add(qps, 0)
            .add(qps_b1 > 0.0 ? qps / qps_b1 : 0.0, 2)
            .add(m.waves)
            .add(m.fetch_rounds)
            .add(m.cache.hit_rate(), 3)
            .add(p[0], 1)
            .add(p[2], 1);
        util::Json c = util::Json::object();
        c["phase"] = "warm_batch_sweep";
        c["scale"] = scale;
        c["ranks"] = ranks;
        c["batch_size"] = static_cast<std::uint64_t>(b);
        c["run"] = serve::to_json(row.run);
        report.add_case(std::move(c));
      }
    }

    // ---- (b) cold dedup sweep ---------------------------------------
    for (const auto b : batches) {
      const auto row = measure_batch(comm, g, base, wl, b, /*warm=*/false);
      const auto& m = row.run.metrics;
      if (comm.rank() == 0) {
        const double per_query =
            m.answered == 0 ? 0.0
                            : static_cast<double>(m.waves) /
                                  static_cast<double>(m.answered);
        cold_table.row()
            .add(static_cast<std::uint64_t>(b))
            .add(row.run.throughput_qps(), 0)
            .add(m.waves)
            .add(per_query, 3);
        util::Json c = util::Json::object();
        c["phase"] = "cold_batch_sweep";
        c["scale"] = scale;
        c["ranks"] = ranks;
        c["batch_size"] = static_cast<std::uint64_t>(b);
        c["run"] = serve::to_json(row.run);
        report.add_case(std::move(c));
      }
    }

    // ---- (c) open-loop SLO run --------------------------------------
    serve::ServeConfig live = base;
    live.batch_size = 8;
    live.queue_depth = 64;
    live.slo_ticks = 32;
    live.facilities.assign(roots.begin(),
                           roots.begin() + std::min<std::size_t>(
                                               4, roots.size()));
    serve::WorkloadConfig open = wl;
    open.nearest_fraction = 0.125;
    const serve::Workload live_load(open);
    const auto live_run =
        serve::run_workload(comm, g, live, live_load);
    if (comm.rank() == 0) {
      openloop_hit_rate = live_run.metrics.cache.hit_rate();
      util::Json serving = util::Json::object();
      serving["schema_version"] = serve::kServingSchemaVersion;
      serving["config"] = serve::to_json(live);
      serving["workload"] = serve::to_json(open);
      serving["run"] = serve::to_json(live_run);
      const auto p = live_run.metrics.latency_ticks.slo_percentiles();
      util::Json latency = util::Json::object();
      latency["p50"] = p[0];
      latency["p90"] = p[1];
      latency["p99"] = p[2];
      serving["latency_ticks"] = std::move(latency);
      serving["throughput_qps"] = live_run.throughput_qps();
      serving["shed"] = live_run.metrics.shed;
      serving["shed_rate"] =
          live_run.metrics.arrived == 0
              ? 0.0
              : static_cast<double>(live_run.metrics.shed) /
                    static_cast<double>(live_run.metrics.arrived);
      serving["cache"] = serve::to_json(live_run.metrics.cache);
      report.doc()["serving"] = std::move(serving);

      util::Table live_table({"quantity", "value"});
      live_table.row().add("queries arrived").add(live_run.metrics.arrived);
      live_table.row().add("answered").add(live_run.metrics.answered);
      live_table.row().add("shed").add(live_run.metrics.shed);
      live_table.row().add("waves").add(live_run.metrics.waves);
      live_table.row()
          .add("cache hit rate")
          .add(live_run.metrics.cache.hit_rate(), 3);
      live_table.row().add("p50 latency (ticks)").add(p[0], 1);
      live_table.row().add("p90 latency (ticks)").add(p[1], 1);
      live_table.row().add("p99 latency (ticks)").add(p[2], 1);
      live_table.row()
          .add("SLO violations")
          .add(live_run.metrics.slo_violations);
      live_table.row().add("throughput (q/s)").add(live_run.throughput_qps(),
                                                   0);
      live_table.print(std::cout,
                       "S1c: open-loop Poisson/Zipf serving, batch 8");
    }

    // ---- (d) oracle on/off sweep ------------------------------------
    // Cold uniform point queries (cache off, zipf 0): with the oracle off
    // every root group costs one full wave; with it on, exact hits and
    // unreachability proofs settle from the bounds and the remaining
    // groups run goal-directed pruned waves.  Answers must not move a bit.
    serve::WorkloadConfig pq = wl;
    pq.ticks = 1;
    pq.arrivals_per_tick = static_cast<double>(oracle_queries);
    pq.zipf_s = 0.0;
    const serve::Workload point_load(pq);

    serve::ServeConfig off_cfg = base;
    off_cfg.cache_budget_bytes = 0;
    off_cfg.batch_size = 4;
    off_cfg.queue_depth =
        static_cast<std::size_t>(oracle_queries) * 4 + 64;
    serve::ServeConfig on_cfg = off_cfg;
    on_cfg.oracle.num_landmarks = static_cast<std::size_t>(landmarks);

    const auto off_run =
        serve::run_workload(comm, g, off_cfg, point_load, /*keep_answers=*/true);
    const auto on_run =
        serve::run_workload(comm, g, on_cfg, point_load, /*keep_answers=*/true);

    bool identical = off_run.answers.size() == on_run.answers.size();
    for (std::size_t i = 0; identical && i < off_run.answers.size(); ++i) {
      const auto& a = off_run.answers[i];
      const auto& b = on_run.answers[i];
      // Float == is exact here: finite distances must match bit for bit
      // and +inf compares equal to +inf.
      identical = a.id == b.id && a.distance == b.distance;
    }
    if (comm.rank() == 0) {
      oracle_bit_identical = identical;
      relax_reduction =
          off_run.relax_generated == 0
              ? 0.0
              : 1.0 - static_cast<double>(on_run.relax_generated) /
                          static_cast<double>(off_run.relax_generated);
      wire_reduction =
          off_run.wire_bytes == 0
              ? 0.0
              : 1.0 - static_cast<double>(on_run.wire_bytes) /
                          static_cast<double>(off_run.wire_bytes);
      const auto& mo = on_run.metrics;
      oracle_table.row()
          .add("off")
          .add(off_run.metrics.waves)
          .add(off_run.metrics.pruned_waves)
          .add(std::uint64_t{0})
          .add(off_run.relax_generated)
          .add(off_run.wire_bytes);
      oracle_table.row()
          .add("on")
          .add(mo.waves)
          .add(mo.pruned_waves)
          .add(mo.oracle_exact + mo.oracle_unreachable)
          .add(on_run.relax_generated)
          .add(on_run.wire_bytes);

      util::Json oj = util::Json::object();
      oj["landmarks"] = static_cast<std::uint64_t>(landmarks);
      oj["queries"] = static_cast<std::uint64_t>(off_run.answers.size());
      oj["bit_identical"] = oracle_bit_identical;
      oj["relax_reduction"] = relax_reduction;
      oj["wire_reduction"] = wire_reduction;
      oj["precompute_waves"] = mo.oracle_precompute_waves;
      oj["precompute_seconds"] = mo.oracle_precompute_seconds;
      oj["off"] = serve::to_json(off_run);
      oj["on"] = serve::to_json(on_run);
      report.doc()["serving"]["oracle"] = std::move(oj);
    }

    // ---- (e) adaptive vs fixed batch sizes --------------------------
    // Same open-loop workload as (c) at every fixed batch size, then once
    // with the rate-tracking controller: adaptive must match or beat the
    // best fixed p99 without hand-picking the batch size.
    double best_p99 = 0.0;
    std::size_t best_b = 0;
    for (const auto b : batches) {
      serve::ServeConfig fixed = live;
      fixed.batch_size = b;
      const auto run = serve::run_workload(comm, g, fixed, live_load);
      const auto p = run.metrics.latency_ticks.slo_percentiles();
      if (best_b == 0 || p[2] < best_p99) {
        best_p99 = p[2];
        best_b = b;
      }
      if (comm.rank() == 0) {
        adaptive_table.row()
            .add("fixed")
            .add(static_cast<std::uint64_t>(b))
            .add(p[0], 1)
            .add(p[2], 1)
            .add(run.metrics.shed)
            .add(run.metrics.answered);
        util::Json c = util::Json::object();
        c["phase"] = "fixed_batch_openloop";
        c["scale"] = scale;
        c["ranks"] = ranks;
        c["batch_size"] = static_cast<std::uint64_t>(b);
        c["run"] = serve::to_json(run);
        report.add_case(std::move(c));
      }
    }

    serve::ServeConfig auto_cfg = live;
    auto_cfg.adaptive.enabled = true;
    auto_cfg.adaptive.min_batch = 1;
    auto_cfg.adaptive.max_batch = 32;
    auto_cfg.adaptive.min_wait_ticks = 1;
    auto_cfg.adaptive.max_wait_ticks = 8;
    auto_cfg.adaptive.target_wait_ticks = 2.0;
    const auto auto_run = serve::run_workload(comm, g, auto_cfg, live_load);
    const auto auto_p = auto_run.metrics.latency_ticks.slo_percentiles();
    if (comm.rank() == 0) {
      best_fixed_batch = best_b;
      best_fixed_p99 = best_p99;
      adaptive_p99 = auto_p[2];
      // "Matches or beats": allow half a tick of quantile-interpolation
      // noise plus 5% for the convergence transient.
      adaptive_ok = adaptive_p99 <= best_fixed_p99 * 1.05 + 0.5;
      adaptive_table.row()
          .add("adaptive")
          .add("auto")
          .add(auto_p[0], 1)
          .add(auto_p[2], 1)
          .add(auto_run.metrics.shed)
          .add(auto_run.metrics.answered);

      util::Json aj = util::Json::object();
      aj["best_fixed_batch"] = static_cast<std::uint64_t>(best_fixed_batch);
      aj["best_fixed_p99"] = best_fixed_p99;
      aj["adaptive_p99"] = adaptive_p99;
      aj["adaptive_adjustments"] = auto_run.metrics.adaptive_adjustments;
      aj["adaptive_shed"] = auto_run.metrics.shed;
      aj["adaptive_ok"] = adaptive_ok;
      aj["run"] = serve::to_json(auto_run);
      report.doc()["serving"]["adaptive"] = std::move(aj);
    }

    // ---- (g) mixed analytics workload -------------------------------
    // Same open-loop service with the oracle on; a quarter of arrivals
    // are analytics jobs drawn uniformly over the four kernels.  The
    // PageRank knobs stay at their defaults (tolerance 0 = fixed
    // iteration count) so the host-side sequential reference reproduces
    // every digest bit for bit.
    serve::ServeConfig mixed_cfg = live;
    mixed_cfg.oracle.num_landmarks = static_cast<std::size_t>(landmarks);
    serve::WorkloadConfig mixed_wl = wl;
    mixed_wl.nearest_fraction = 0.125;
    mixed_wl.analytics_fraction = analytics_fraction;
    const serve::Workload mixed_load(mixed_wl);
    serve::DistanceService mixed_service(comm, g, mixed_cfg);
    const auto mixed_run = serve::run_workload(comm, g, mixed_cfg, mixed_load,
                                               /*keep_answers=*/true,
                                               &mixed_service);
    // A short trace can leave a kernel with no served job.  One job of
    // each such kernel then goes to the same service after the trace, so
    // the gate below checks every kernel at any --ticks.
    std::vector<serve::Answer> mixed_answers = mixed_run.answers;
    std::array<bool, serve::kNumAnalyticsKernels> served{};
    for (const auto& a : mixed_answers) {
      if (a.kind == serve::QueryKind::kAnalytics &&
          a.outcome == serve::Outcome::kServed) {
        served[static_cast<std::size_t>(a.kernel)] = true;
      }
    }
    std::uint64_t next_id = mixed_load.trace().size();
    for (std::size_t k = 0; k < served.size(); ++k) {
      if (served[k]) continue;
      serve::Query q;
      q.id = next_id++;
      q.arrival_tick = mixed_run.ticks_run;
      q.kind = serve::QueryKind::kAnalytics;
      q.kernel = static_cast<serve::AnalyticsKernel>(k);
      q.root = mixed_wl.roots.front();
      q.target = mixed_wl.roots.back();
      (void)mixed_service.submit(q);
      if (comm.rank() == 0) {
        mixed_topped_up.emplace_back(serve::kernel_name(q.kernel));
      }
    }
    const auto tail = mixed_service.drain(mixed_run.ticks_run);
    mixed_answers.insert(mixed_answers.end(), tail.begin(), tail.end());
    const auto& mixed_metrics = mixed_service.metrics();
    if (comm.rank() == 0) {
      for (const auto& a : mixed_answers) {
        if (a.kind != serve::QueryKind::kAnalytics) continue;
        if (a.outcome != serve::Outcome::kServed) continue;
        const auto slot = static_cast<std::size_t>(a.kernel);
        if (a.kernel == serve::AnalyticsKernel::kReachability) {
          mixed_reach.push_back({a.root, a.target,
                                 static_cast<std::uint64_t>(a.value),
                                 a.digest});
        } else {
          mixed_digest[slot] = a.digest;
          mixed_seen[slot] = true;
        }
      }
      mixed_seen[static_cast<std::size_t>(
          serve::AnalyticsKernel::kReachability)] = !mixed_reach.empty();
      mixed_kernel_jobs = mixed_metrics.kernel_jobs;
      const auto dp = mixed_run.metrics.latency_ticks.slo_percentiles();
      const auto ap =
          mixed_run.metrics.analytics_latency_ticks.slo_percentiles();
      mixed_dist_p = {dp[0], dp[1], dp[2]};
      mixed_ana_p = {ap[0], ap[1], ap[2]};

      util::Json mj = util::Json::object();
      mj["analytics_fraction"] = analytics_fraction;
      mj["config"] = serve::to_json(mixed_cfg);
      mj["workload"] = serve::to_json(mixed_wl);
      mj["run"] = serve::to_json(mixed_run);
      report.doc()["serving"]["mixed"] = std::move(mj);
    }
  });

  // ---- (f) chaos sweep: availability under injected faults ------------
  // Fault-free reference, then the identical workload under a seeded
  // crash/corrupt/stall schedule, then a cold restart adopting the
  // persisted oracle slices.  All three go through the resilient driver
  // so the only variable is the fault plan.
  serve::WorkloadConfig chaos_wl;
  chaos_wl.seed = seed;
  chaos_wl.ticks = ticks;
  chaos_wl.arrivals_per_tick = lambda;
  chaos_wl.zipf_s = zipf;
  chaos_wl.nearest_fraction = 0.125;
  chaos_wl.deadline_ticks = 64;
  chaos_wl.roots = chaos_roots;
  chaos_wl.num_vertices = chaos_num_vertices;
  const serve::Workload chaos_load(chaos_wl);

  serve::ServeConfig chaos_cfg;
  chaos_cfg.batch_size = 8;
  chaos_cfg.queue_depth = 64;
  chaos_cfg.max_wait_ticks = 4;
  chaos_cfg.slo_ticks = 32;
  chaos_cfg.cache_budget_bytes = chaos_slice_entries * sizeof(graph::Weight) *
                                 (chaos_roots.size() + 1);
  chaos_cfg.facilities.assign(
      chaos_roots.begin(),
      chaos_roots.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              4, chaos_roots.size())));
  chaos_cfg.oracle.num_landmarks = static_cast<std::size_t>(landmarks);
  chaos_cfg.fault.checkpoint_interval = 2;
  chaos_cfg.fault.max_wave_attempts = 3;
  chaos_cfg.fault.degraded_answers = true;
  chaos_cfg.fault.breaker_threshold = 3;
  chaos_cfg.fault.breaker_cooldown_ticks = 8;
  // Generous budget: the deadline propagates into every wave without
  // truncating healthy ones at this scale.
  chaos_cfg.fault.deadline_buckets_per_tick = 64;
  chaos_cfg.fault.backoff.base_seconds = 0.001;
  chaos_cfg.fault.backoff.seed = seed ^ 0xb0ff;

  const auto build = [&params](simmpi::Comm& comm) {
    return graph::build_kronecker(comm, params);
  };

  world.clear_fault_plan();
  serve::ResilientServeOptions ref_opt;
  ref_opt.keep_answers = true;
  const auto ref_run =
      serve::run_workload_resilient(world, build, chaos_cfg, chaos_load,
                                    ref_opt);

  std::vector<serve::OracleSliceStore> slice_stores;
  serve::ResilientServeOptions chaos_opt;
  chaos_opt.keep_answers = true;
  chaos_opt.oracle_stores = &slice_stores;
  simmpi::FaultPlan plan = simmpi::FaultPlan::random(
      seed ^ 0xfa17, ranks, chaos_crashes, chaos_corruptions, chaos_stalls,
      chaos_horizon);
  // One scripted early crash guarantees the retry machinery is exercised
  // even if the random schedule lands beyond the run's collective count.
  plan.crash(ranks > 1 ? 1 : 0, 64);
  world.enable_checksums(true);  // corruption must be detectable
  world.set_fault_plan(plan);
  const auto chaos_run =
      serve::run_workload_resilient(world, build, chaos_cfg, chaos_load,
                                    chaos_opt);
  world.clear_fault_plan();

  serve::ResilientServeOptions restart_opt;
  restart_opt.oracle_stores = &slice_stores;
  const auto restart_run =
      serve::run_workload_resilient(world, build, chaos_cfg, chaos_load,
                                    restart_opt);
  world.enable_checksums(false);

  // Gate 1: availability floor.
  const double chaos_avail = chaos_run.availability.availability();
  const bool avail_ok = chaos_avail >= avail_floor;
  // Gate 2/3: compare by query id against the fault-free reference.
  std::vector<float> ref_dist(chaos_load.trace().size(), 0.0f);
  std::vector<std::uint8_t> ref_served(ref_dist.size(), 0);
  for (const auto& a : ref_run.answers) {
    if (a.id < ref_dist.size() && a.outcome == serve::Outcome::kServed) {
      ref_dist[a.id] = a.distance;
      ref_served[a.id] = 1;
    }
  }
  bool exact_ok = true;
  bool bracket_ok = true;
  std::uint64_t exact_compared = 0;
  std::uint64_t degraded_checked = 0;
  for (const auto& a : chaos_run.answers) {
    if (a.id >= ref_dist.size() || ref_served[a.id] == 0) continue;
    const float ref = ref_dist[a.id];
    if (a.outcome == serve::Outcome::kServed) {
      // Float == is exact here: recovery must not move a single bit
      // (+inf compares equal to +inf).
      exact_ok = exact_ok && a.distance == ref;
      ++exact_compared;
    } else if (a.outcome == serve::Outcome::kDegraded) {
      // The true distance must sit inside the reported bracket (tiny
      // relative slack for float accumulation in the bound arithmetic).
      bracket_ok = bracket_ok && a.lb <= ref * 1.00001f + 1e-6f &&
                   ref <= a.ub * 1.00001f + 1e-6f;
      ++degraded_checked;
    }
  }
  // Gate 4: the fault plan actually bit (otherwise the sweep is vacuous).
  const bool retried = chaos_run.availability.attempts >= 2;
  // Gate 5: restart adopts the persisted slices — zero precompute waves.
  const bool restart_ok =
      restart_run.metrics.oracle_precompute_waves == 0 &&
      restart_run.availability.oracle_restored;
  const bool chaos_ok =
      avail_ok && exact_ok && bracket_ok && retried && restart_ok;

  util::Table chaos_table(
      {"run", "attempts", "retries", "served", "degraded", "deadline",
       "failed", "availability"});
  const auto chaos_row = [&](const char* name,
                             const serve::ServingRunReport& r) {
    const auto& av = r.availability;
    chaos_table.row()
        .add(name)
        .add(av.attempts)
        .add(av.wave_retries)
        .add(av.served)
        .add(av.degraded)
        .add(av.deadline_exceeded)
        .add(av.failed)
        .add(av.availability(), 4);
  };
  chaos_row("reference", ref_run);
  chaos_row("chaos", chaos_run);
  chaos_row("restart", restart_run);

  util::Json cj = util::Json::object();
  cj["avail_floor"] = avail_floor;
  cj["availability"] = chaos_avail;
  cj["attempts"] = chaos_run.availability.attempts;
  cj["wave_retries"] = chaos_run.availability.wave_retries;
  cj["waves_abandoned"] = chaos_run.availability.waves_abandoned;
  cj["exact_bit_identical"] = exact_ok;
  cj["exact_compared"] = exact_compared;
  cj["degraded_bracketed"] = bracket_ok;
  cj["degraded_checked"] = degraded_checked;
  cj["faults_exercised"] = retried;
  cj["restart_precompute_waves"] = restart_run.metrics.oracle_precompute_waves;
  cj["oracle_restored"] = restart_run.availability.oracle_restored;
  cj["chaos_ok"] = chaos_ok;
  cj["reference"] = serve::to_json(ref_run);
  cj["faulted"] = serve::to_json(chaos_run);
  cj["restart"] = serve::to_json(restart_run);
  report.doc()["serving"]["chaos"] = std::move(cj);

  // ---- (g) sequential kernel references -------------------------------
  // The exact edge list the distributed build consumed (the generator is
  // counter-based), canonicalized the same way build_distributed does:
  // self-loops dropped, parallel edges deduplicated — so the per-vertex
  // neighbour sets match the distributed CSR and the digests must too.
  const graph::EdgeList whole = graph::kronecker_graph(params);
  const std::size_t ref_n = whole.num_vertices;
  std::vector<std::vector<graph::VertexId>> adj(ref_n);
  for (const auto& e : whole.edges) {
    if (e.src == e.dst) continue;
    adj[e.src].push_back(e.dst);
    adj[e.dst].push_back(e.src);
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }

  // PageRank: same contribution/summation order as core::pagerank
  // (ascending neighbour id, dangling mass leaks), same default knobs.
  std::uint64_t ref_pr_digest = 0;
  {
    const core::PageRankConfig cfg;
    const double teleport =
        (1.0 - cfg.damping) / static_cast<double>(ref_n);
    std::vector<double> pr(ref_n, 1.0 / static_cast<double>(ref_n));
    std::vector<double> contrib(ref_n, 0.0);
    std::vector<double> next(ref_n, 0.0);
    for (std::uint64_t iter = 0; iter < cfg.max_iters; ++iter) {
      for (std::size_t v = 0; v < ref_n; ++v) {
        contrib[v] = adj[v].empty()
                         ? 0.0
                         : pr[v] / static_cast<double>(adj[v].size());
      }
      for (std::size_t v = 0; v < ref_n; ++v) {
        double sum = 0.0;
        for (const auto u : adj[v]) sum += contrib[u];
        next[v] = teleport + cfg.damping * sum;
      }
      pr.swap(next);
    }
    ref_pr_digest = serve::fnv1a(pr.data(), pr.size() * sizeof(double));
  }

  // k-core: sequential cascading peel (coreness is order-independent).
  std::uint64_t ref_kcore_digest = 0;
  {
    std::vector<std::int64_t> deg(ref_n);
    for (std::size_t v = 0; v < ref_n; ++v) {
      deg[v] = static_cast<std::int64_t>(adj[v].size());
    }
    std::vector<std::uint32_t> core_of(ref_n, 0);
    std::vector<char> alive(ref_n, 1);
    std::size_t remaining = ref_n;
    while (remaining > 0) {
      std::int64_t k = std::numeric_limits<std::int64_t>::max();
      for (std::size_t v = 0; v < ref_n; ++v) {
        if (alive[v]) k = std::min(k, deg[v]);
      }
      bool progress = true;
      while (progress) {
        progress = false;
        for (std::size_t v = 0; v < ref_n; ++v) {
          if (!alive[v] || deg[v] > k) continue;
          alive[v] = 0;
          core_of[v] = static_cast<std::uint32_t>(k);
          --remaining;
          progress = true;
          for (const auto u : adj[v]) {
            if (alive[u]) --deg[u];
          }
        }
      }
    }
    ref_kcore_digest =
        serve::fnv1a(core_of.data(), core_of.size() * sizeof(std::uint32_t));
  }

  // Components via union-find; labels are the component's minimum vertex
  // id, matching the min-label propagation fixpoint.
  std::vector<graph::VertexId> parent(ref_n);
  for (std::size_t v = 0; v < ref_n; ++v) parent[v] = v;
  const std::function<graph::VertexId(graph::VertexId)> find =
      [&](graph::VertexId v) {
        while (parent[v] != v) {
          parent[v] = parent[parent[v]];
          v = parent[v];
        }
        return v;
      };
  for (std::size_t v = 0; v < ref_n; ++v) {
    for (const auto u : adj[v]) {
      const auto rv = find(v);
      const auto ru = find(u);
      if (rv != ru) parent[std::max(rv, ru)] = std::min(rv, ru);
    }
  }
  std::uint64_t ref_comp_digest = 0;
  {
    std::vector<graph::VertexId> label(ref_n);
    // Ascending scan: the first vertex to reach a set root is the
    // component minimum, and unions above keep the smaller root.
    for (std::size_t v = 0; v < ref_n; ++v) label[v] = find(v);
    ref_comp_digest =
        serve::fnv1a(label.data(), label.size() * sizeof(graph::VertexId));
  }

  // Reachability: every pair the service answered, against union-find,
  // value AND digest (the digest canon is {root, target, reachable}).
  bool reach_ok = true;
  for (const auto& pair : mixed_reach) {
    const bool want = find(pair[0]) == find(pair[1]);
    const std::uint64_t canon[3] = {pair[0], pair[1],
                                    want ? std::uint64_t{1} : 0};
    reach_ok = reach_ok && pair[2] == (want ? 1u : 0u) &&
               pair[3] == serve::fnv1a(canon, sizeof(canon));
  }

  const auto slot_of = [](serve::AnalyticsKernel k) {
    return static_cast<std::size_t>(k);
  };
  const bool pr_ok =
      mixed_seen[slot_of(serve::AnalyticsKernel::kPageRank)] &&
      mixed_digest[slot_of(serve::AnalyticsKernel::kPageRank)] ==
          ref_pr_digest;
  const bool kcore_ok =
      mixed_seen[slot_of(serve::AnalyticsKernel::kKCore)] &&
      mixed_digest[slot_of(serve::AnalyticsKernel::kKCore)] ==
          ref_kcore_digest;
  const bool comp_ok =
      mixed_seen[slot_of(serve::AnalyticsKernel::kComponents)] &&
      mixed_digest[slot_of(serve::AnalyticsKernel::kComponents)] ==
          ref_comp_digest;
  const bool kernels_validated =
      pr_ok && kcore_ok && comp_ok &&
      mixed_seen[slot_of(serve::AnalyticsKernel::kReachability)] && reach_ok;

  util::Table mixed_table({"kernel", "jobs", "digest", "reference", "match"});
  const auto mixed_row = [&](serve::AnalyticsKernel k, std::uint64_t ref,
                             bool match) {
    const auto slot = slot_of(k);
    mixed_table.row()
        .add(std::string(serve::kernel_name(k)))
        .add(mixed_kernel_jobs[slot])
        .add(mixed_seen[slot] ? mixed_digest[slot] : 0)
        .add(ref)
        .add(match ? "yes" : "NO");
  };
  mixed_row(serve::AnalyticsKernel::kPageRank, ref_pr_digest, pr_ok);
  mixed_row(serve::AnalyticsKernel::kKCore, ref_kcore_digest, kcore_ok);
  mixed_row(serve::AnalyticsKernel::kComponents, ref_comp_digest, comp_ok);
  mixed_table.row()
      .add("reachability")
      .add(mixed_kernel_jobs[slot_of(serve::AnalyticsKernel::kReachability)])
      .add(static_cast<std::uint64_t>(mixed_reach.size()))
      .add("per-pair")
      .add(reach_ok && !mixed_reach.empty() ? "yes" : "NO");

  util::Json kernels = util::Json::object();
  const auto kernel_case = [&](serve::AnalyticsKernel k, std::uint64_t ref,
                               bool match) {
    util::Json kj = util::Json::object();
    const auto slot = slot_of(k);
    kj["jobs"] = mixed_kernel_jobs[slot];
    kj["digest"] = mixed_seen[slot] ? mixed_digest[slot] : 0;
    kj["reference_digest"] = ref;
    kj["match"] = match;
    kernels[std::string(serve::kernel_name(k))] = std::move(kj);
  };
  kernel_case(serve::AnalyticsKernel::kPageRank, ref_pr_digest, pr_ok);
  kernel_case(serve::AnalyticsKernel::kKCore, ref_kcore_digest, kcore_ok);
  kernel_case(serve::AnalyticsKernel::kComponents, ref_comp_digest, comp_ok);
  util::Json rj = util::Json::object();
  rj["pairs"] = static_cast<std::uint64_t>(mixed_reach.size());
  rj["match"] = reach_ok && !mixed_reach.empty();
  kernels["reachability"] = std::move(rj);
  report.doc()["serving"]["mixed"]["kernels"] = std::move(kernels);
  report.doc()["serving"]["mixed"]["kernels_validated"] = kernels_validated;

  warm_table.print(std::cout, "S1a: warm-cache drain throughput vs batch size"
                              ", scale " + std::to_string(scale) + ", " +
                              std::to_string(ranks) + " ranks");
  std::cout << "\nExpected shape: throughput rises with the batch size — one "
               "answer-extraction\nexchange (and one queue pass) serves the "
               "whole batch.\n\n";
  cold_table.print(std::cout, "S1b: cold (cache off) drain — root dedup only");
  std::cout << "\nExpected shape: waves/query < 1 once batches exceed 1 — "
               "Zipf-popular roots\nrepeat within a batch and share one "
               "wave.\n\n";
  oracle_table.print(std::cout, "S1d: landmark (ALT) oracle off vs on, " +
                                    std::to_string(landmarks) + " landmarks");
  std::cout << "\nExpected shape: identical answers with fewer relaxations "
               "and wire bytes —\nbounds settle exact/unreachable queries "
               "outright and prune the rest.\n\n";
  adaptive_table.print(std::cout,
                       "S1e: open-loop p99 — fixed batch sizes vs adaptive");
  std::cout << "\nExpected shape: the controller converges to the best fixed "
               "operating point\nwithout being told the arrival rate.\n\n";
  chaos_table.print(std::cout,
                    "S1f: chaos sweep — fault-free vs injected faults vs "
                    "restart from persisted slices");
  std::cout << "\nExpected shape: the chaos run keeps availability above the "
               "floor, every exact\nanswer matches the reference bit for bit, "
               "and the restart adopts the persisted\noracle slices with zero "
               "precompute waves.\n\n";
  mixed_table.print(std::cout,
                    "S1g: mixed analytics workload — kernel digests vs "
                    "sequential references");
  std::cout << "\nExpected shape: every kernel matches its sequential "
               "reference bit for bit\nwhile distance batches keep flowing "
               "(distance p50/p90/p99 " << mixed_dist_p[0] << "/"
            << mixed_dist_p[1] << "/" << mixed_dist_p[2]
            << " ticks,\nanalytics " << mixed_ana_p[0] << "/"
            << mixed_ana_p[1] << "/" << mixed_ana_p[2] << " ticks).\n";
  if (!mixed_topped_up.empty()) {
    std::cout << "Served no job in the trace, so given one after it:";
    for (const auto& name : mixed_topped_up) std::cout << " " << name;
    std::cout << "\n";
  }
  std::cout << "\n";

  const double speedup = qps_b1 > 0.0 ? qps_b8 / qps_b1 : 0.0;
  std::cout << "batch-8 vs batch-1 warm throughput (medians of "
            << kWarmSamples << "): " << speedup << "x (required >= "
            << min_speedup << "x)\n";
  std::cout << "open-loop cache hit rate: " << openloop_hit_rate
            << " (required > 0)\n";
  std::cout << "oracle answers bit-identical: "
            << (oracle_bit_identical ? "yes" : "NO") << ", relax reduction "
            << relax_reduction << ", wire reduction " << wire_reduction
            << " (required: identical and both > 0)\n";
  std::cout << "adaptive p99 " << adaptive_p99 << " vs best fixed p99 "
            << best_fixed_p99 << " (batch " << best_fixed_batch
            << ") -> " << (adaptive_ok ? "ok" : "NOT ok") << "\n";
  std::cout << "chaos availability " << chaos_avail << " (floor "
            << avail_floor << "), " << chaos_run.availability.attempts
            << " attempts, exact answers "
            << (exact_ok ? "bit-identical" : "DIVERGED") << " ("
            << exact_compared << " compared), degraded "
            << (bracket_ok ? "bracketed" : "OUT OF BRACKET") << " ("
            << degraded_checked << " checked), restart precompute waves "
            << restart_run.metrics.oracle_precompute_waves << " -> "
            << (chaos_ok ? "ok" : "NOT ok") << "\n";
  std::cout << "mixed-workload kernels "
            << (kernels_validated ? "validated" : "NOT validated")
            << " (pagerank " << (pr_ok ? "ok" : "NO") << ", kcore "
            << (kcore_ok ? "ok" : "NO") << ", components "
            << (comp_ok ? "ok" : "NO") << ", reachability "
            << (reach_ok && !mixed_reach.empty() ? "ok" : "NO") << ", "
            << mixed_reach.size() << " pairs)\n";
  const bool oracle_ok =
      oracle_bit_identical && relax_reduction > 0.0 && wire_reduction > 0.0;
  ok = speedup >= min_speedup && openloop_hit_rate > 0.0 && oracle_ok &&
       adaptive_ok && chaos_ok && kernels_validated;

  util::Json samples = util::Json::object();
  for (std::size_t i = 0; i < std::size(batches); ++i) {
    util::Json qps = util::Json::array();
    for (const double q : warm_qps[i]) qps.push_back(q);
    samples[std::to_string(batches[i])] = std::move(qps);
  }
  report.doc()["warm_qps_samples"] = std::move(samples);
  report.doc()["speedup_batch8_vs_batch1"] = speedup;
  report.doc()["min_speedup"] = min_speedup;
  report.doc()["acceptance_ok"] = ok;
  bench::write_report(report, warm_table);
  return ok ? 0 : 1;
}
