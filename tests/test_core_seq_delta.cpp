// Tests for the sequential Meyer-Sanders reference engine.
#include <gtest/gtest.h>

#include "core/dijkstra.hpp"
#include "core/seq_delta_stepping.hpp"
#include "graph/generators.hpp"
#include "graph/kronecker.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

class SeqDeltaSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

INSTANTIATE_TEST_SUITE_P(
    GraphAndDelta, SeqDeltaSweep,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(0.0, 0.01, 0.1, 0.5, 2.0)));

EdgeList graph_case(int idx) {
  switch (idx) {
    case 0: {
      KroneckerParams p;
      p.scale = 9;
      p.edgefactor = 8;
      return kronecker_graph(p);
    }
    case 1:
      return grid_graph(10, 13, 3);
    case 2:
      return path_graph(100, 4);
    case 3:
      return star_graph(80, 5);
    default:
      return random_graph(150, 600, 6);
  }
}

TEST_P(SeqDeltaSweep, MatchesDijkstra) {
  const auto [graph_idx, delta] = GetParam();
  const EdgeList list = graph_case(graph_idx);
  for (const VertexId root : {VertexId{0}, list.num_vertices / 3}) {
    const auto got = core::seq_delta_stepping(list, root, delta);
    const auto want = core::dijkstra(list, root);
    ASSERT_EQ(got.dist.size(), want.dist.size());
    for (VertexId v = 0; v < list.num_vertices; ++v) {
      EXPECT_FLOAT_EQ(got.dist[v], want.dist[v])
          << "delta " << delta << " root " << root << " vertex " << v;
    }
  }
}

TEST(SeqDelta, SmallerDeltaMeansMoreBuckets) {
  const EdgeList list = random_graph(200, 800, 7);
  core::SeqDeltaStats fine;
  core::SeqDeltaStats coarse;
  (void)core::seq_delta_stepping(list, 0, 0.01, &fine);
  (void)core::seq_delta_stepping(list, 0, 0.5, &coarse);
  EXPECT_GT(fine.buckets_processed, coarse.buckets_processed);
}

TEST(SeqDelta, LargerDeltaMeansMoreRelaxations) {
  // Coarse buckets re-relax more (Bellman-Ford-ward drift).
  const EdgeList list = random_graph(300, 2400, 9);
  core::SeqDeltaStats fine;
  core::SeqDeltaStats coarse;
  (void)core::seq_delta_stepping(list, 0, 0.05, &fine);
  (void)core::seq_delta_stepping(list, 0, 10.0, &coarse);
  EXPECT_GE(coarse.relaxations, fine.relaxations);
}

TEST(SeqDelta, BadInputsThrow) {
  const EdgeList list = path_graph(4);
  EXPECT_THROW((void)core::seq_delta_stepping(list, 9), std::out_of_range);
}

TEST(SeqDelta, UnreachableStayInfinite) {
  EdgeList list;
  list.num_vertices = 5;
  list.edges = {{0, 1, 0.5f}};
  const auto got = core::seq_delta_stepping(list, 0);
  EXPECT_EQ(got.dist[4], kInfDistance);
  EXPECT_EQ(got.parent[4], kNoVertex);
}

TEST(SeqDelta, HeavyCandidateRoundingIntoItsBucketIsExpanded) {
  // Weight 0.7f is heavy at delta 0.7, yet bucket_of(0.7f) is bucket 0:
  // bucket 0's heavy phase queues vertex 1 back into bucket 0, and the
  // scan must return to it.
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1, 0.7f}, {1, 2, 0.7f}};
  const auto got = core::seq_delta_stepping(list, 0, 0.7);
  EXPECT_EQ(got.dist[2], 0.7f + 0.7f);
  EXPECT_EQ(got.parent[2], 1u);
  EXPECT_EQ(got.dist, core::dijkstra(list, 0).dist);
}

}  // namespace
