// Async delta-stepping tests: the barrier-free engine must produce
// BIT-IDENTICAL distance arrays to the synchronous engine on every graph,
// rank count and config variant — including under fault injection — while
// issuing fewer global collectives.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "core/async_delta_stepping.hpp"
#include "core/delta_stepping.hpp"
#include "core/json.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"
#include "sssp_test_util.hpp"

namespace {

using namespace g500;
using graph::VertexId;

/// Run both engines on `list` over `ranks` from every root and require the
/// owned distance slices to match byte-for-byte.  Also checks the async
/// result against the official validator and that the async run issued
/// fewer global collectives than the synchronous one.
void expect_bit_identical(const graph::EdgeList& list, int ranks,
                          const std::vector<VertexId>& roots,
                          const core::SsspConfig& config = {}) {
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_distributed(
        comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    for (const auto root : roots) {
      core::SsspStats sync_stats;
      core::SsspStats async_stats;
      const auto sync = core::delta_stepping(comm, g, root, config,
                                             &sync_stats);
      const auto async =
          core::async_delta_stepping(comm, g, root, config, &async_stats);
      ASSERT_EQ(sync.dist.size(), async.dist.size());
      EXPECT_EQ(std::memcmp(sync.dist.data(), async.dist.data(),
                            sync.dist.size() * sizeof(graph::Weight)),
                0)
          << "distances differ from sync engine, root " << root << " ranks "
          << ranks;
      const auto verdict = core::validate_sssp(comm, g, root, async);
      EXPECT_TRUE(verdict.ok)
          << "async validation failed (root " << root << "): "
          << (verdict.errors.empty() ? "?" : verdict.errors.front());
      EXPECT_LT(async_stats.global_collectives, sync_stats.global_collectives)
          << "root " << root << " ranks " << ranks;
    }
  });
}

TEST(AsyncDeltaStepping, MatchesSyncOnStandardGraphs) {
  for (const auto& gc : g500::testing::standard_graph_cases()) {
    SCOPED_TRACE(gc.name);
    const auto list = gc.make();
    for (const int ranks : {1, 2, 5, 8}) {
      expect_bit_identical(list, ranks, {0, 1});
    }
  }
}

TEST(AsyncDeltaStepping, MatchesSyncAcrossConfigVariants) {
  graph::KroneckerParams params;
  params.scale = 8;
  const auto list = graph::kronecker_graph(params);

  core::SsspConfig coalesce_off;
  coalesce_off.coalesce = false;
  core::SsspConfig compress_off;
  compress_off.compress = false;
  core::SsspConfig hub_off;
  hub_off.hub_cache = false;
  core::SsspConfig fusion_off;
  fusion_off.local_fusion = false;
  core::SsspConfig wide_delta;
  wide_delta.delta = 2.0;

  for (const auto& config : {core::SsspConfig{}, coalesce_off, compress_off,
                             hub_off, fusion_off, wide_delta}) {
    expect_bit_identical(list, 4, {1}, config);
  }
}

TEST(AsyncDeltaStepping, MultiSourceMatchesSync) {
  const auto list = graph::random_graph(128, 512, 99);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_distributed(
        comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    const std::vector<VertexId> roots = {3, 60, 101};
    const auto sync = core::delta_stepping_multi(comm, g, roots);
    const auto async = core::async_delta_stepping_multi(comm, g, roots);
    ASSERT_EQ(sync.dist.size(), async.dist.size());
    EXPECT_EQ(std::memcmp(sync.dist.data(), async.dist.data(),
                          sync.dist.size() * sizeof(graph::Weight)),
              0);
  });
}

TEST(AsyncDeltaStepping, RejectsEmptyRootSet) {
  const auto list = graph::path_graph(8);
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_distributed(
        comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    EXPECT_THROW((void)core::async_delta_stepping_multi(comm, g, {}),
                 std::invalid_argument);
  });
}

TEST(AsyncDeltaStepping, ReportsAsyncTelemetry) {
  graph::KroneckerParams params;
  params.scale = 8;
  const auto list = graph::kronecker_graph(params);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_distributed(
        comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    core::SsspStats stats;
    (void)core::async_delta_stepping(comm, g, 1, {}, &stats);
    EXPECT_GT(stats.sub_rounds, 0u);
    EXPECT_GT(stats.relax_applied, 0u);
    // A connected scale-8 Kronecker pushes enough relaxations that at least
    // one flush of either kind must have happened on some rank.
    const auto gs = core::global_stats(comm, stats);
    EXPECT_GT(gs.aggregator_flush_capacity + gs.aggregator_flush_timeout, 0u);
    // The whole async phase is barrier-free: the only collectives are the
    // settle sweep's convergence checks.
    EXPECT_LE(gs.global_collectives, 4u);
    const auto sj = core::to_json(gs);
    EXPECT_TRUE(sj.contains("global_collectives"));
    EXPECT_TRUE(sj.contains("sub_rounds"));
    EXPECT_TRUE(sj.contains("aggregator_flush_capacity"));
    EXPECT_TRUE(sj.contains("aggregator_flush_timeout"));
  });
}

TEST(AsyncDeltaStepping, RunnerProtocolValidates) {
  graph::KroneckerParams params;
  params.scale = 8;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_kronecker(comm, params);
    core::RunnerOptions opts;
    opts.num_roots = 4;
    opts.algorithm = core::Algorithm::kAsyncDeltaStepping;
    const auto report = core::run_benchmark(comm, g, opts);
    EXPECT_TRUE(report.all_valid);
    EXPECT_EQ(report.runs.size(), 4u);
  });
}

// --- Config contract ---------------------------------------------------

/// The async engine's gathered distances from vertex 0 of `list` on 3
/// ranks under `config`.
std::vector<graph::Weight> solve_async(const graph::EdgeList& list,
                                       const core::SsspConfig& config) {
  std::vector<graph::Weight> dist;
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_distributed(
        comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    const auto whole =
        comm.allgatherv(core::async_delta_stepping(comm, g, 0, config).dist);
    if (comm.rank() == 0) dist = whole;
  });
  return dist;
}

TEST(AsyncDeltaStepping, AcceptsAutoAndPush) {
  // Both mean push, the engine's only direction.
  const auto list = graph::random_graph(96, 400, 8);
  const auto want = core::dijkstra(list, 0).dist;
  for (const auto direction :
       {core::Direction::kAuto, core::Direction::kPush}) {
    core::SsspConfig config;
    config.direction = direction;
    EXPECT_EQ(solve_async(list, config), want)
        << core::direction_name(direction);
  }
}

TEST(AsyncDeltaStepping, RefusesForcedPull) {
  core::SsspConfig config;
  config.direction = core::Direction::kPull;
  g500::testing::expect_refusal(
      [&] { (void)solve_async(graph::random_graph(96, 400, 8), config); },
      "async_delta_stepping", "direction kPull");
}

TEST(AsyncDeltaStepping, RefusesBucketTrace) {
  core::SsspConfig config;
  config.collect_bucket_trace = true;
  g500::testing::expect_refusal(
      [&] { (void)solve_async(graph::random_graph(96, 400, 8), config); },
      "async_delta_stepping", "collect_bucket_trace");
}

TEST(AsyncDeltaStepping, RefusesHierarchicalExchange) {
  core::SsspConfig config;
  config.hierarchical_group = 2;
  g500::testing::expect_refusal(
      [&] { (void)solve_async(graph::random_graph(96, 400, 8), config); },
      "async_delta_stepping", "hierarchical_group");
}

// --- Fault injection ----------------------------------------------------

TEST(AsyncDeltaStepping, StallDoesNotChangeDistances) {
  // A stalled rank slows the stream but the fixed point is schedule-
  // independent: distances stay bit-identical to the synchronous run.
  graph::KroneckerParams params;
  params.scale = 8;
  const auto list = graph::kronecker_graph(params);
  const int ranks = 4;

  std::vector<graph::Weight> reference;
  {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const graph::DistGraph g = graph::build_distributed(
          comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
          list.num_vertices);
      const auto sync = core::delta_stepping(comm, g, 1);
      const auto gathered = core::gather_result(comm, g, sync);
      if (comm.rank() == 0) reference = gathered.dist;
    });
  }

  simmpi::World world(ranks);
  std::vector<graph::DistGraph> graphs(static_cast<std::size_t>(ranks));
  world.run([&](simmpi::Comm& comm) {
    graphs[static_cast<std::size_t>(comm.rank())] = graph::build_distributed(
        comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
  });
  // Installed after the build, so the stalls hit the solve's own parcel
  // deposits / settle collectives (every rank performs several: at least
  // two token forwards plus the settle allreduce).
  world.set_fault_plan(simmpi::FaultPlan{}
                           .stall(/*rank=*/1, /*at_call=*/2, /*seconds=*/0.5)
                           .stall(/*rank=*/3, /*at_call=*/3, /*seconds=*/0.5));
  world.run([&](simmpi::Comm& comm) {
    const auto& g = graphs[static_cast<std::size_t>(comm.rank())];
    const auto async = core::async_delta_stepping(comm, g, 1);
    const auto gathered = core::gather_result(comm, g, async);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.dist.size(), reference.size());
      EXPECT_EQ(std::memcmp(gathered.dist.data(), reference.data(),
                            reference.size() * sizeof(graph::Weight)),
                0);
    }
  });
  EXPECT_EQ(world.injector()->events_fired(), 2u);
}

TEST(AsyncDeltaStepping, CrashMidRunUnwindsAndRetrySucceeds) {
  graph::KroneckerParams params;
  params.scale = 8;
  const auto list = graph::kronecker_graph(params);
  const int ranks = 4;

  simmpi::World world(ranks);
  // Build once so the crash can be aimed past graph construction, at a
  // collective (or parcel deposit) inside the async solve itself.
  std::vector<graph::DistGraph> graphs(static_cast<std::size_t>(ranks));
  world.run([&](simmpi::Comm& comm) {
    graphs[static_cast<std::size_t>(comm.rank())] = graph::build_distributed(
        comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
  });
  world.set_fault_plan(simmpi::FaultPlan{}.crash(/*rank=*/2, /*at_call=*/5));

  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 (void)core::async_delta_stepping(
                     comm, graphs[static_cast<std::size_t>(comm.rank())], 1);
               }),
               simmpi::InjectedCrashError);

  // The crash latch is one-shot: the retry completes and still matches the
  // synchronous engine bit-for-bit.
  world.run([&](simmpi::Comm& comm) {
    const auto& g = graphs[static_cast<std::size_t>(comm.rank())];
    const auto sync = core::delta_stepping(comm, g, 1);
    const auto async = core::async_delta_stepping(comm, g, 1);
    ASSERT_EQ(sync.dist.size(), async.dist.size());
    EXPECT_EQ(std::memcmp(sync.dist.data(), async.dist.data(),
                          sync.dist.size() * sizeof(graph::Weight)),
              0);
  });
}

}  // namespace
