// Tests for the shared relaxation kernel (core/relax.hpp): the coalescer's
// tie-break and drop count on both wire records, the flat hub index at hub
// counts from one to nearly every vertex, and that the record the engines
// ship (12-byte packed or 24-byte wide) changes no result bit and no
// deterministic counter.  The radix coalescer itself is tested against a
// sort+unique reference in test_util_radix_sort.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/delta_stepping.hpp"
#include "core/dijkstra.hpp"
#include "core/relax.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

template <typename Msg>
class CoalesceMin : public ::testing::Test {};

using Records = ::testing::Types<core::RelaxRequest, core::PackedRelaxRequest>;
TYPED_TEST_SUITE(CoalesceMin, Records);

TYPED_TEST(CoalesceMin, KeepsLeastDistThenSmallerParentPerTarget) {
  using Msg = TypeParam;
  // Two ranks of eight vertices: rank 1 owns 8..15, so the packed record
  // stores targets 11 and 15 as local 3 and 7.
  const BlockPartition part(16, 2);
  const auto rec = [&](VertexId target, Weight dist, VertexId parent) {
    return core::encode<Msg>(target, part.local(target), dist, parent);
  };
  std::vector<Msg> box = {rec(15, 0.5f, 9), rec(11, 0.25f, 4),
                          rec(15, 0.5f, 2), rec(15, 0.75f, 1),
                          rec(11, 0.25f, 4)};
  EXPECT_EQ(core::coalesce_min(box), 3u);
  ASSERT_EQ(box.size(), 2u);
  EXPECT_EQ(core::decode_target(part, box[0]), 3u);
  EXPECT_EQ(box[0].dist, 0.25f);
  EXPECT_EQ(box[0].parent, 4u);
  EXPECT_EQ(core::decode_target(part, box[1]), 7u);
  EXPECT_EQ(box[1].dist, 0.5f);
  EXPECT_EQ(box[1].parent, 2u);  // equal distance: the smaller parent wins

  std::vector<Msg> single = {rec(8, 1.0f, 0)};
  EXPECT_EQ(core::coalesce_min(single), 0u);
  EXPECT_EQ(single.size(), 1u);
}

void expect_same_counters(const core::SsspStats& a, const core::SsspStats& b) {
  EXPECT_EQ(a.buckets_processed, b.buckets_processed);
  EXPECT_EQ(a.light_iterations, b.light_iterations);
  EXPECT_EQ(a.heavy_phases, b.heavy_phases);
  EXPECT_EQ(a.push_rounds, b.push_rounds);
  EXPECT_EQ(a.pull_rounds, b.pull_rounds);
  EXPECT_EQ(a.relax_generated, b.relax_generated);
  EXPECT_EQ(a.relax_sent, b.relax_sent);
  EXPECT_EQ(a.relax_received, b.relax_received);
  EXPECT_EQ(a.relax_applied, b.relax_applied);
  EXPECT_EQ(a.fused_local, b.fused_local);
  EXPECT_EQ(a.filtered_hub, b.filtered_hub);
  EXPECT_EQ(a.filtered_coalesce, b.filtered_coalesce);
  EXPECT_EQ(a.frontier_broadcast, b.frontier_broadcast);
  EXPECT_EQ(a.global_collectives, b.global_collectives);
  EXPECT_EQ(a.sub_rounds, b.sub_rounds);
}

TEST(RelaxKernel, PackedAndWideRecordsGiveIdenticalRunsAndCounters) {
  KroneckerParams params;
  params.scale = 10;
  for (const int ranks : {1, 3, 4}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      ASSERT_FALSE(g.hubs.empty());
      const VertexId root = g.hubs.front();
      core::SsspConfig wide;
      wide.compress = false;
      core::SsspStats packed_stats;
      core::SsspStats wide_stats;
      const auto packed =
          core::delta_stepping(comm, g, root, {}, &packed_stats);
      const auto unpacked =
          core::delta_stepping(comm, g, root, wide, &wide_stats);
      EXPECT_EQ(packed.dist, unpacked.dist) << ranks << " ranks";
      EXPECT_EQ(packed.parent, unpacked.parent) << ranks << " ranks";
      expect_same_counters(packed_stats, wide_stats);
      // Every piece of the kernel ran: the hub filter and local fusion,
      // and with remote owners also the coalescer, each acted somewhere.
      EXPECT_GT(comm.allreduce_sum(packed_stats.filtered_hub), 0u);
      EXPECT_GT(comm.allreduce_sum(packed_stats.fused_local), 0u);
      const auto coalesced =
          comm.allreduce_sum(packed_stats.filtered_coalesce);
      if (comm.size() > 1) {
        EXPECT_GT(coalesced, 0u);
      }
    });
  }
}

TEST(RelaxKernel, FlatHubIndexFiltersAtEveryHubCount) {
  // From one hub to 1000 of the 1024 vertices.  Only vertices with an
  // edge can be hubs, so the last case makes every one of them a hub and
  // every candidate hits the table.  The filter may change which parent
  // wins a distance tie, so only distances are compared across hub_cache.
  KroneckerParams params;
  params.scale = 10;
  const EdgeList whole = kronecker_graph(params);
  for (const std::size_t hubs : {std::size_t{1}, std::size_t{16},
                                 std::size_t{1000}}) {
    for (const int ranks : {1, 3, 4}) {
      simmpi::World world(ranks);
      world.run([&](simmpi::Comm& comm) {
        BuildOptions opts;
        opts.hub_count = hubs;
        const DistGraph g = build_kronecker(comm, params, opts);
        std::uint64_t with_edges = 0;
        for (LocalId u = 0; u < g.csr.num_local(); ++u) {
          with_edges += g.csr.degree(u) > 0 ? 1 : 0;
        }
        with_edges = comm.allreduce_sum(with_edges);
        ASSERT_EQ(g.hubs.size(), std::min<std::uint64_t>(hubs, with_edges));
        const VertexId root = core::sample_roots(comm, g, 1, 3).front();
        core::SsspConfig off;
        off.hub_cache = false;
        core::SsspStats stats;
        const auto cached = core::delta_stepping(comm, g, root, {}, &stats);
        const auto uncached = core::delta_stepping(comm, g, root, off);
        const std::string where = std::to_string(hubs) + " hubs, " +
                                  std::to_string(ranks) + " ranks";
        EXPECT_EQ(cached.dist, uncached.dist) << where;
        EXPECT_TRUE(core::validate_sssp(comm, g, root, cached).ok) << where;
        EXPECT_TRUE(core::validate_sssp(comm, g, root, uncached).ok) << where;
        EXPECT_GT(comm.allreduce_sum(stats.filtered_hub), 0u) << where;
        const auto got = core::gather_result(comm, g, cached);
        const auto want = core::dijkstra(whole, root);
        ASSERT_EQ(got.dist.size(), want.dist.size());
        for (std::size_t v = 0; v < want.dist.size(); ++v) {
          EXPECT_FLOAT_EQ(got.dist[v], want.dist[v])
              << where << " vertex " << v;
        }
      });
    }
  }
}

}  // namespace
