// Correctness tests for the distributed Bellman-Ford baseline.
#include <gtest/gtest.h>

#include "sssp_test_util.hpp"

namespace {

using namespace g500;
using namespace g500::graph;
using g500::testing::EngineKind;
using g500::testing::expect_matches_oracle;
using g500::testing::standard_graph_cases;

class BellmanFordSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    GraphRank, BellmanFordSweep,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(1, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return standard_graph_cases()[std::get<0>(info.param)].name + "_r" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(BellmanFordSweep, MatchesDijkstraAndValidates) {
  const auto [graph_idx, ranks] = GetParam();
  const auto gc = standard_graph_cases()[graph_idx];
  const EdgeList list = gc.make();
  expect_matches_oracle(list, ranks, {0, list.num_vertices - 1},
                        core::SsspConfig{}, EngineKind::kBellmanFord);
}

TEST(BellmanFord, PlainConfigAlsoCorrect) {
  const EdgeList list = random_graph(96, 400, 8);
  expect_matches_oracle(list, 4, {0}, core::SsspConfig::plain(),
                        EngineKind::kBellmanFord);
}

TEST(BellmanFord, GeneratesMoreRelaxationsThanDeltaStepping) {
  // The whole point of buckets: BF re-relaxes settled vertices; on a path
  // graph with descending weights the gap is extreme, on Kronecker modest
  // but present.
  KroneckerParams params;
  params.scale = 10;
  params.edgefactor = 8;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspStats bf_stats;
    core::SsspStats ds_stats;
    (void)core::bellman_ford(comm, g, 1, core::SsspConfig{}, &bf_stats);
    (void)core::delta_stepping(comm, g, 1, core::SsspConfig{}, &ds_stats);
    const auto bf = comm.allreduce_sum(bf_stats.relax_generated);
    const auto ds = comm.allreduce_sum(ds_stats.relax_generated);
    EXPECT_GT(bf, 0u);
    EXPECT_GT(ds, 0u);
    // Delta-stepping never generates more candidate work than BF here.
    EXPECT_LE(ds, bf * 2);  // sanity ordering, allows noise
  });
}

TEST(BellmanFord, RootOutOfRangeThrows) {
  const EdgeList g = path_graph(4);
  simmpi::World world(2);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph dg = build_distributed(
                     comm, slice_for_rank(g, comm.rank(), comm.size()), 4);
                 (void)core::bellman_ford(comm, dg, 44);
               }),
               std::out_of_range);
}

TEST(BellmanFord, EmptyGraphTerminates) {
  EdgeList isolated;
  isolated.num_vertices = 4;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, isolated, 4);
    const auto mine = core::bellman_ford(comm, g, 0);
    EXPECT_TRUE(core::validate_sssp(comm, g, 0, mine).ok);
  });
}

// --------------------------------------------------------- config contract

/// Bellman-Ford's gathered distances from vertex 0 of `list` on 3 ranks
/// under `config`.
std::vector<Weight> solve_bf(const EdgeList& list,
                             const core::SsspConfig& config) {
  std::vector<Weight> dist;
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    const auto whole =
        comm.allgatherv(core::bellman_ford(comm, g, 0, config).dist);
    if (comm.rank() == 0) dist = whole;
  });
  return dist;
}

TEST(BellmanFord, AcceptsAutoAndPush) {
  // Both mean push, the engine's only direction.
  const EdgeList list = random_graph(96, 400, 8);
  const auto want = core::dijkstra(list, 0).dist;
  for (const auto direction :
       {core::Direction::kAuto, core::Direction::kPush}) {
    core::SsspConfig config;
    config.direction = direction;
    EXPECT_EQ(solve_bf(list, config), want) << core::direction_name(direction);
  }
}

/// Expect Bellman-Ford to refuse `config`, naming `knob`.
void expect_bf_refuses(const core::SsspConfig& config, const char* knob) {
  g500::testing::expect_refusal(
      [&] { (void)solve_bf(random_graph(96, 400, 8), config); },
      "bellman_ford", knob);
}

TEST(BellmanFord, RefusesForcedPull) {
  core::SsspConfig config;
  config.direction = core::Direction::kPull;
  expect_bf_refuses(config, "direction kPull");
}

TEST(BellmanFord, RefusesBucketTrace) {
  core::SsspConfig config;
  config.collect_bucket_trace = true;
  expect_bf_refuses(config, "collect_bucket_trace");
}

TEST(BellmanFord, RefusesABucketWidth) {
  core::SsspConfig config;
  config.delta = 0.25;
  expect_bf_refuses(config, "delta");
}

TEST(BellmanFord, RefusesABucketLimit) {
  core::SsspConfig config;
  config.max_buckets = 8;
  expect_bf_refuses(config, "max_buckets");
}

}  // namespace
