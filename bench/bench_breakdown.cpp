// F5 — Execution breakdown.
//
// Where one SSSP spends its effort: light vs heavy phases, rounds per
// bucket, and the distribution of frontier sizes per inner round (the
// histogram that motivates direction switching).  Also runs the async-vs-
// sync comparison and GATES it: the barrier-free engine must reproduce the
// synchronous distances bit-for-bit while issuing strictly fewer global
// collectives, or this harness exits nonzero.
#include <cstring>
#include <iostream>

#include "bench_util.hpp"
#include "core/async_delta_stepping.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int scale = static_cast<int>(options.get_int("scale", 15));
  const int ranks = static_cast<int>(options.get_int("ranks", 8));

  graph::KroneckerParams params;
  params.scale = scale;

  core::SsspConfig config;
  config.collect_bucket_trace = true;
  const auto m = bench::measure_sssp(params, ranks, config, 2);

  bench::RunReport report("breakdown", options);
  {
    util::Json c = util::Json::object();
    c["scale"] = scale;
    c["ranks"] = ranks;
    c["config"] = core::to_json(config);
    c["measurement"] = bench::to_json(m);
    report.add_case(std::move(c));
  }

  util::Table table({"metric", "value"});
  table.row().add("buckets processed").add(m.stats.buckets_processed);
  table.row().add("hub syncs").add(m.stats.hub_syncs);
  table.row().add("light inner rounds").add(m.stats.light_iterations);
  table.row()
      .add("rounds per bucket")
      .add(static_cast<double>(m.stats.light_iterations) /
               static_cast<double>(std::max<std::uint64_t>(
                   1, m.stats.buckets_processed)),
           2);
  table.row().add("heavy phases").add(m.stats.heavy_phases);
  table.row().add("push rounds").add(m.stats.push_rounds);
  table.row().add("pull rounds").add(m.stats.pull_rounds);
  table.row().add("light time (s)").add(m.stats.light_seconds, 4);
  table.row().add("heavy time (s)").add(m.stats.heavy_seconds, 4);
  table.row()
      .add("relax generated")
      .add_si(static_cast<double>(m.stats.relax_generated));
  table.row()
      .add("relax applied")
      .add_si(static_cast<double>(m.stats.relax_applied));
  table.row()
      .add("apply rate")
      .add(static_cast<double>(m.stats.relax_applied) /
               static_cast<double>(
                   std::max<std::uint64_t>(1, m.stats.relax_generated)),
           3);
  table.row().add("valid").add(m.valid ? "yes" : "NO");
  table.print(std::cout, "F5: phase breakdown, Kronecker scale " +
                             std::to_string(scale));

  std::cout << "\nFrontier size per inner round (log2 buckets):\n"
            << m.stats.frontier_hist.to_string() << "\n";
  {
    const auto p = m.stats.frontier_hist.slo_percentiles();
    std::cout << "frontier-size percentiles (interpolated): p50 " << p[0]
              << "  p90 " << p[1] << "  p99 " << p[2] << "\n\n";
    util::Json fq = util::Json::object();
    fq["p50"] = p[0];
    fq["p90"] = p[1];
    fq["p99"] = p[2];
    report.doc()["frontier_percentiles"] = std::move(fq);
  }

  // Per-bucket time series of one solve (rank 0's view), from the first
  // root the async-vs-sync block below samples: a vertex with edges, where
  // a fixed id such as 1 may sit nearly alone and drain in one bucket.
  {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const graph::DistGraph g = graph::build_kronecker(comm, params);
      const graph::VertexId root =
          core::sample_roots(comm, g, 1, core::kRootSeed).front();
      core::SsspStats stats;
      (void)core::delta_stepping(comm, g, root, config, &stats);
      if (comm.rank() == 0) {
        const util::Json sj = core::to_json(stats);
        if (sj.contains("bucket_trace")) {
          report.doc()["bucket_trace_rank0"] = sj.at("bucket_trace");
        }
        util::Table series({"bucket", "light rounds", "frontier mass",
                            "settled (rank 0)", "time (ms)"});
        // Cap the print at the 24 busiest-to-latest rows for readability.
        const std::size_t n = stats.bucket_trace.size();
        const std::size_t step = n > 24 ? n / 24 + 1 : 1;
        for (std::size_t i = 0; i < n; i += step) {
          const auto& row = stats.bucket_trace[i];
          series.row()
              .add(row.bucket)
              .add(row.light_rounds)
              .add(row.frontier_total)
              .add(row.settled)
              .add(row.seconds * 1e3, 3);
        }
        series.print(std::cout, "per-bucket time series, root " +
                                    std::to_string(root) + " (sampled rows, " +
                                    std::to_string(n) + " buckets total)");
      }
    });
  }
  std::cout << "Expected shape: a few giant-frontier rounds hold most "
               "vertices (pull territory),\na long tail of tiny rounds "
               "(latency territory); the heavy phase, which pulls the\n"
               "buckets that settle most of the graph, takes less time than "
               "the light phases.\n\n";

  // --- Async vs sync (gated) -------------------------------------------
  // Same graph, same roots: run both engines back to back on every rank,
  // compare the owned distance slices byte-for-byte, and compare collective
  // round counts.  The acceptance bar: bit-identical distances, strictly
  // fewer global collectives.
  bool bit_identical = false;
  std::uint64_t p2p_bytes = 0;
  core::SsspStats sync_stats;
  core::SsspStats async_stats;
  {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const graph::DistGraph g = graph::build_kronecker(comm, params);
      const auto roots = core::sample_roots(comm, g, 3, core::kRootSeed);
      bool mismatch = false;
      core::SsspStats merged_sync;
      core::SsspStats merged_async;
      for (const auto root : roots) {
        core::SsspStats s;
        core::SsspStats a;
        const auto sync_result =
            core::delta_stepping(comm, g, root, {}, &s);
        const auto async_result =
            core::async_delta_stepping(comm, g, root, {}, &a);
        mismatch = mismatch ||
                   sync_result.dist.size() != async_result.dist.size() ||
                   std::memcmp(sync_result.dist.data(),
                               async_result.dist.data(),
                               sync_result.dist.size() *
                                   sizeof(graph::Weight)) != 0;
        merged_sync.merge(s);
        merged_async.merge(a);
      }
      mismatch = comm.allreduce_or(mismatch);
      const auto gs = core::global_stats(comm, merged_sync);
      const auto ga = core::global_stats(comm, merged_async);
      if (comm.rank() == 0) {
        bit_identical = !mismatch;
        sync_stats = gs;
        async_stats = ga;
      }
    });
    p2p_bytes = world.p2p_summary().bytes;
  }
  const bool fewer_collectives =
      async_stats.global_collectives < sync_stats.global_collectives;

  util::Table async_table({"metric", "sync", "async"});
  async_table.row()
      .add("global collectives")
      .add(sync_stats.global_collectives)
      .add(async_stats.global_collectives);
  async_table.row()
      .add("sub-rounds (mean/rank)")
      .add(sync_stats.sub_rounds)
      .add(async_stats.sub_rounds);
  async_table.row()
      .add("relax applied")
      .add_si(static_cast<double>(sync_stats.relax_applied))
      .add_si(static_cast<double>(async_stats.relax_applied));
  async_table.row()
      .add("aggregator flushes (cap/timeout)")
      .add("-")
      .add(std::to_string(async_stats.aggregator_flush_capacity) + "/" +
           std::to_string(async_stats.aggregator_flush_timeout));
  async_table.row()
      .add("bit-identical distances")
      .add("-")
      .add(bit_identical ? "yes" : "NO");
  async_table.print(std::cout, "async vs sync (3 roots)");

  {
    util::Json a = util::Json::object();
    a["sync_collectives"] = sync_stats.global_collectives;
    a["async_collectives"] = async_stats.global_collectives;
    a["fewer_collectives"] = fewer_collectives;
    a["bit_identical"] = bit_identical;
    a["flush_capacity"] = async_stats.aggregator_flush_capacity;
    a["flush_timeout"] = async_stats.aggregator_flush_timeout;
    a["p2p_bytes"] = p2p_bytes;
    report.doc()["async"] = std::move(a);
  }

  bench::write_report(report, table);
  if (!bit_identical || !fewer_collectives) {
    std::cerr << "ASYNC GATE FAILED: bit_identical="
              << (bit_identical ? "yes" : "no") << " fewer_collectives="
              << (fewer_collectives ? "yes" : "no") << "\n";
    return 1;
  }
  return 0;
}
