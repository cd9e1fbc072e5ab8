// Cross-module integration tests: the optimization claims the paper's
// evaluation rests on, verified end-to-end on the simulated runtime.
#include <gtest/gtest.h>

#include "core/delta_stepping.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "model/projection.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

/// Run one SSSP with `config` and return the aggregate wire bytes it cost.
std::uint64_t wire_bytes_for(const KroneckerParams& params,
                             const core::SsspConfig& config, int ranks,
                             BuildOptions build_opts = {}) {
  simmpi::World world(ranks);
  std::uint64_t bytes = 0;
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params, build_opts);
    // Isolate the solve's traffic from construction by measuring the delta
    // around it (alltoallv relaxations + allgatherv frontier broadcasts).
    const std::uint64_t before = comm.allreduce_sum(
        comm.stats().alltoallv.bytes + comm.stats().allgather.bytes);
    const auto mine = core::delta_stepping(comm, g, 1, config);
    const std::uint64_t after = comm.allreduce_sum(
        comm.stats().alltoallv.bytes + comm.stats().allgather.bytes);
    EXPECT_TRUE(core::validate_sssp(comm, g, 1, mine).ok);
    if (comm.rank() == 0) bytes = after - before;
  });
  return bytes;
}

TEST(Integration, CoalescingReducesWireBytes) {
  KroneckerParams params;
  params.scale = 11;
  params.edgefactor = 16;
  core::SsspConfig plain = core::SsspConfig::plain();
  core::SsspConfig coalesced = core::SsspConfig::plain();
  coalesced.coalesce = true;
  const auto without = wire_bytes_for(params, plain, 4);
  const auto with = wire_bytes_for(params, coalesced, 4);
  EXPECT_LT(with, without);
}

TEST(Integration, HubCacheReducesWireBytesOnSkewedGraphs) {
  KroneckerParams params;
  params.scale = 11;
  params.edgefactor = 16;
  core::SsspConfig base = core::SsspConfig::plain();
  base.coalesce = true;
  core::SsspConfig hub = base;
  hub.hub_cache = true;
  const auto without = wire_bytes_for(params, base, 4);
  const auto with = wire_bytes_for(params, hub, 4);
  EXPECT_LT(with, without);
}

TEST(Integration, LocalFusionKeepsLocalCandidatesOutOfTheExchange) {
  // Fusion applies on-rank candidates directly, so the number of requests
  // routed through the alltoallv exchange must drop by exactly the fused
  // share.
  KroneckerParams params;
  params.scale = 10;
  core::SsspConfig base = core::SsspConfig::plain();
  core::SsspConfig fused = base;
  fused.local_fusion = true;
  auto sent_with = [&](const core::SsspConfig& config) {
    simmpi::World world(2);
    std::uint64_t sent = 0;
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      core::SsspStats stats;
      const auto mine = core::delta_stepping(comm, g, 1, config, &stats);
      EXPECT_TRUE(core::validate_sssp(comm, g, 1, mine).ok);
      const auto total = comm.allreduce_sum(stats.relax_sent);
      if (comm.rank() == 0) sent = total;
    });
    return sent;
  };
  EXPECT_LT(sent_with(fused), sent_with(base));
}

TEST(Integration, AllConfigurationsAgreeOnDistances) {
  KroneckerParams params;
  params.scale = 10;
  std::vector<core::SsspConfig> configs;
  configs.push_back(core::SsspConfig{});
  configs.push_back(core::SsspConfig::plain());
  {
    core::SsspConfig c;
    c.direction = core::Direction::kPull;
    configs.push_back(c);
  }
  std::vector<float> reference;
  for (const auto& config : configs) {
    simmpi::World world(4);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      const auto mine = core::delta_stepping(comm, g, 7, config);
      const auto whole = core::gather_result(comm, g, mine);
      if (comm.rank() == 0) {
        if (reference.empty()) {
          reference = whole.dist;
        } else {
          ASSERT_EQ(whole.dist.size(), reference.size());
          for (std::size_t v = 0; v < reference.size(); ++v) {
            EXPECT_EQ(whole.dist[v], reference[v]) << "vertex " << v;
          }
        }
      }
    });
  }
}

TEST(Integration, FullProtocolThenProjection) {
  // The complete workflow of the record submission, miniaturized: run the
  // official protocol, calibrate the analytic model from its measurements,
  // project to the record configuration.
  KroneckerParams params;
  params.scale = 10;
  simmpi::World world(4);
  core::BenchmarkReport report;
  world.reset_stats();
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::RunnerOptions opts;
    opts.num_roots = 2;
    const auto r = core::run_benchmark(comm, g, opts);
    if (comm.rank() == 0) report = r;
    comm.barrier();
  });
  ASSERT_TRUE(report.all_valid);

  const auto cal = model::Calibration::from_run(
      report.stats, world.aggregate_stats(), params.num_edges(),
      report.runs.size(), params.scale);
  model::Projection proj(model::Machine::new_sunway(), cal);
  const auto record = proj.predict(43, 107520);
  EXPECT_TRUE(record.memory_feasible);
  EXPECT_GT(record.gteps, 0.0);
  EXPECT_GT(record.cores, 40'000'000);
}

TEST(Integration, PullModeSavesBytesOnDenseBuckets) {
  // Force a dense frontier regime and confirm direction switching lowers
  // alltoallv traffic (replaced by frontier broadcasts).
  KroneckerParams params;
  params.scale = 10;
  params.edgefactor = 32;  // dense: big frontiers per bucket
  core::SsspConfig push_only = core::SsspConfig::plain();
  push_only.coalesce = true;
  core::SsspConfig with_pull = push_only;
  with_pull.direction = core::Direction::kAuto;
  const auto push_bytes = wire_bytes_for(params, push_only, 8);
  const auto pull_bytes = wire_bytes_for(params, with_pull, 8);
  EXPECT_LT(pull_bytes, push_bytes);
}

}  // namespace
