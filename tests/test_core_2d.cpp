// Tests for the 2-D checkerboard distribution and its SSSP engine.
#include <gtest/gtest.h>

#include "core/delta_stepping.hpp"
#include "core/delta_stepping_2d.hpp"
#include "core/dijkstra.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/grid2d.hpp"
#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"
#include "sssp_test_util.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

// --------------------------------------------------------------- geometry

TEST(ProcessGrid, FactorsNearSquare) {
  EXPECT_EQ(ProcessGrid(1).rows(), 1);
  EXPECT_EQ(ProcessGrid(1).cols(), 1);
  EXPECT_EQ(ProcessGrid(4).rows(), 2);
  EXPECT_EQ(ProcessGrid(4).cols(), 2);
  EXPECT_EQ(ProcessGrid(6).rows(), 2);
  EXPECT_EQ(ProcessGrid(6).cols(), 3);
  EXPECT_EQ(ProcessGrid(12).rows(), 3);
  EXPECT_EQ(ProcessGrid(12).cols(), 4);
  EXPECT_EQ(ProcessGrid(7).rows(), 1);  // prime: degenerates to 1 x P
  EXPECT_EQ(ProcessGrid(7).cols(), 7);
}

TEST(ProcessGrid, CoordinatesRoundTrip) {
  const ProcessGrid grid(12);
  for (int r = 0; r < 12; ++r) {
    EXPECT_EQ(grid.rank_at(grid.row_of(r), grid.col_of(r)), r);
  }
}

TEST(ProcessGrid, EdgeHomeLiesInExpectedRowAndColumn) {
  const ProcessGrid grid(16);
  for (int ou = 0; ou < 16; ++ou) {
    for (int ov = 0; ov < 16; ++ov) {
      const int home = grid.edge_home(ou, ov);
      // Column of the source's owner: the owner can broadcast down it.
      EXPECT_EQ(grid.col_of(home), grid.col_of(ou));
      // Row of the destination's owner: candidates stay in the row.
      EXPECT_EQ(grid.row_of(home), grid.row_of(ov));
    }
  }
}

TEST(ProcessGrid, RejectsZeroRanks) {
  EXPECT_THROW(ProcessGrid(0), std::invalid_argument);
}

// ------------------------------------------------------------ SourceBlock

TEST(SourceBlock, GroupsAndSplits) {
  std::vector<WireEdge> edges = {
      {5, 1, 0.9f}, {5, 2, 0.1f}, {7, 3, 0.5f}};
  const SourceBlock block(std::move(edges));
  EXPECT_EQ(block.num_sources(), 2u);
  EXPECT_EQ(block.num_edges(), 3u);
  const auto r5 = block.find(5);
  ASSERT_EQ(r5.last - r5.first, 2u);
  EXPECT_EQ(block.dst(r5.first), 2u);  // weight-sorted
  EXPECT_EQ(block.split_at(r5, 0.5f) - r5.first, 1u);
  EXPECT_TRUE(block.find(6).empty());
  std::size_t index = 99;
  EXPECT_EQ(block.find(7, &index).first, block.range(1).first);
  EXPECT_EQ(index, 1u);
  EXPECT_TRUE(block.find(6, &index).empty());
  EXPECT_EQ(index, 1u);  // untouched when the source is absent
}

// ------------------------------------------------------------------ build

TEST(Build2D, EdgeCountsMatch1DBuild) {
  KroneckerParams params;
  params.scale = 9;
  simmpi::World world(6);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph one_d = build_kronecker(comm, params);
    EdgeList slice;
    slice.num_vertices = params.num_vertices();
    {
      const std::uint64_t total = params.num_edges();
      const auto P = static_cast<std::uint64_t>(comm.size());
      const auto r = static_cast<std::uint64_t>(comm.rank());
      slice.edges = kronecker_slice(params, total * r / P,
                                    total * (r + 1) / P);
    }
    const Dist2DGraph two_d = build_2d(comm, slice, params.num_vertices());
    EXPECT_EQ(two_d.num_directed_edges, one_d.num_directed_edges);
    EXPECT_EQ(two_d.num_input_edges, one_d.num_input_edges);
    // Owned degrees agree with the 1-D CSR.
    for (LocalId v = 0; v < one_d.csr.num_local(); ++v) {
      EXPECT_EQ(two_d.owned_degree[v], one_d.csr.degree(v)) << "vertex " << v;
    }
  });
}

TEST(Build2D, SelfLoopsAndDuplicatesCleaned) {
  EdgeList list;
  list.num_vertices = 8;
  list.edges = {{0, 1, 0.9f}, {1, 0, 0.2f}, {3, 3, 0.5f}, {2, 5, 0.4f}};
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const Dist2DGraph g = build_2d(
        comm, slice_for_rank(list, comm.rank(), comm.size()), 8);
    EXPECT_EQ(g.num_directed_edges, 4u);  // {0,1} and {2,5}, both ways
  });
}

// ----------------------------------------------------------------- engine

class TwoDSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, TwoDSweep,
                         ::testing::Values(1, 2, 4, 6, 8, 9, 12, 16));

TEST_P(TwoDSweep, MatchesDijkstraOnKronecker) {
  const int ranks = GetParam();
  KroneckerParams params;
  params.scale = 8;
  params.edgefactor = 8;
  const EdgeList whole = kronecker_graph(params);
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const Dist2DGraph g = build_2d(
        comm, slice_for_rank(whole, comm.rank(), comm.size()),
        whole.num_vertices);
    for (const VertexId root : {VertexId{0}, VertexId{100}}) {
      const auto mine = core::delta_stepping_2d(comm, g, root);
      const auto dist = comm.allgatherv(mine.dist);
      const auto want = core::dijkstra(whole, root);
      for (std::size_t v = 0; v < want.dist.size(); ++v) {
        EXPECT_FLOAT_EQ(dist[v], want.dist[v])
            << "ranks " << ranks << " root " << root << " vertex " << v;
      }
    }
  });
}

TEST_P(TwoDSweep, MatchesDijkstraOnGrid) {
  const int ranks = GetParam();
  const EdgeList whole = grid_graph(9, 13, 8);
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const Dist2DGraph g = build_2d(
        comm, slice_for_rank(whole, comm.rank(), comm.size()),
        whole.num_vertices);
    const auto mine = core::delta_stepping_2d(comm, g, 0);
    const auto dist = comm.allgatherv(mine.dist);
    const auto want = core::dijkstra(whole, 0);
    for (std::size_t v = 0; v < want.dist.size(); ++v) {
      EXPECT_FLOAT_EQ(dist[v], want.dist[v]) << "vertex " << v;
    }
  });
}

TEST(TwoD, AgreesWithOneDEngine) {
  KroneckerParams params;
  params.scale = 9;
  const EdgeList whole = kronecker_graph(params);
  simmpi::World world(8);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph one_d = build_kronecker(comm, params);
    const Dist2DGraph two_d = build_2d(
        comm, slice_for_rank(whole, comm.rank(), comm.size()),
        whole.num_vertices);
    const auto a = core::delta_stepping(comm, one_d, 5);
    const auto b = core::delta_stepping_2d(comm, two_d, 5);
    ASSERT_EQ(a.dist.size(), b.dist.size());
    for (std::size_t v = 0; v < a.dist.size(); ++v) {
      EXPECT_EQ(a.dist[v], b.dist[v]) << "local vertex " << v;
    }
    // The 2-D result passes the official validation against the 1-D graph
    // (same ownership, so the result formats are interchangeable).
    EXPECT_TRUE(core::validate_sssp(comm, one_d, 5, b).ok);
  });
}

TEST(TwoD, MessagePartnersBoundedByRowPlusColumn) {
  // The point of the checkerboard: each rank talks to at most
  // R + C (+ itself) distinct ranks, not P.
  KroneckerParams params;
  params.scale = 9;
  constexpr int kRanks = 16;  // 4 x 4 grid
  const EdgeList whole = kronecker_graph(params);
  // Construction routes input slices anywhere, so build first, reset the
  // traffic counters, then measure the solve alone.
  simmpi::World solve_world(kRanks);
  std::vector<Dist2DGraph> graphs(kRanks);
  solve_world.run([&](simmpi::Comm& comm) {
    graphs[comm.rank()] = build_2d(
        comm, slice_for_rank(whole, comm.rank(), comm.size()),
        whole.num_vertices);
  });
  solve_world.reset_stats();
  solve_world.run([&](simmpi::Comm& comm) {
    (void)core::delta_stepping_2d(comm, graphs[comm.rank()], 1);
  });
  const ProcessGrid grid(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const auto& bytes_to = solve_world.rank_stats(r).bytes_to;
    int partners = 0;
    for (int d = 0; d < kRanks; ++d) {
      if (bytes_to[d] > 0 && d != r) ++partners;
    }
    EXPECT_LE(partners, grid.rows() + grid.cols())
        << "rank " << r << " exceeded its row+column neighbourhood";
  }
}

TEST(TwoD, RootOutOfRangeThrows) {
  EdgeList list = path_graph(4);
  simmpi::World world(4);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const Dist2DGraph g = build_2d(
                     comm, slice_for_rank(list, comm.rank(), comm.size()), 4);
                 (void)core::delta_stepping_2d(comm, g, 99);
               }),
               std::out_of_range);
}

TEST(TwoD, DisconnectedAndEdgeless) {
  EdgeList list;
  list.num_vertices = 10;
  list.edges = {{0, 1, 0.3f}};
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const Dist2DGraph g = build_2d(comm, slice_for_rank(list, comm.rank(),
                                                        comm.size()),
                                   10);
    const auto mine = core::delta_stepping_2d(comm, g, 0);
    const auto dist = comm.allgatherv(mine.dist);
    EXPECT_EQ(dist[0], 0.0f);
    EXPECT_GT(dist[1], 0.0f);
    EXPECT_NE(dist[1], kInfDistance);
    for (VertexId v = 2; v < 10; ++v) EXPECT_EQ(dist[v], kInfDistance);
  });
}

TEST(TwoD, HeavyCandidateRoundingIntoItsBucketIsExpanded) {
  // Weight 0.7f is heavy at delta 0.7, yet bucket_of(0.7f) is bucket 0:
  // bucket 0's heavy phase queues vertex 1 back into bucket 0, and the
  // scan must return to it (see the 1-D engine's test of the same path).
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1, 0.7f}, {1, 2, 0.7f}};
  for (const int ranks : {1, 4}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const auto slice = slice_for_rank(list, comm.rank(), comm.size());
      const DistGraph one_d = build_distributed(comm, slice, 3);
      const Dist2DGraph two_d = build_2d(comm, slice, 3);
      core::SsspConfig config;
      config.delta = 0.7;
      const auto mine = core::delta_stepping_2d(comm, two_d, 0, config);
      const auto dist = comm.allgatherv(mine.dist);
      EXPECT_EQ(dist[2], 0.7f + 0.7f) << ranks << " ranks";
      EXPECT_TRUE(core::validate_sssp(comm, one_d, 0, mine).ok);
    });
  }
}

// --------------------------------------------------------- config contract

/// The 2-D engine's gathered distances from vertex 0 of `list` on 4 ranks
/// under `config`.
std::vector<Weight> solve_2d(const EdgeList& list,
                             const core::SsspConfig& config) {
  std::vector<Weight> dist;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const Dist2DGraph g = build_2d(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    const auto whole =
        comm.allgatherv(core::delta_stepping_2d(comm, g, 0, config).dist);
    if (comm.rank() == 0) dist = whole;
  });
  return dist;
}

TEST(TwoD, AcceptsAutoAndPush) {
  // Both mean push, the engine's only direction.
  const EdgeList list = random_graph(96, 400, 8);
  const auto want = core::dijkstra(list, 0).dist;
  for (const auto direction :
       {core::Direction::kAuto, core::Direction::kPush}) {
    core::SsspConfig config;
    config.direction = direction;
    EXPECT_EQ(solve_2d(list, config), want) << core::direction_name(direction);
  }
}

TEST(TwoD, RefusesForcedPull) {
  core::SsspConfig config;
  config.direction = core::Direction::kPull;
  g500::testing::expect_refusal(
      [&] { (void)solve_2d(random_graph(96, 400, 8), config); },
      "delta_stepping_2d", "direction kPull");
}

TEST(TwoD, RefusesBucketTrace) {
  core::SsspConfig config;
  config.collect_bucket_trace = true;
  g500::testing::expect_refusal(
      [&] { (void)solve_2d(random_graph(96, 400, 8), config); },
      "delta_stepping_2d", "collect_bucket_trace");
}

}  // namespace
