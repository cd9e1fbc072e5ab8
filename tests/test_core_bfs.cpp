// Correctness tests for the direction-optimizing distributed BFS.
#include <gtest/gtest.h>

#include <queue>

#include "core/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

/// Sequential reference: hop levels by textbook BFS.
std::vector<std::uint32_t> reference_levels(const EdgeList& list,
                                            VertexId root) {
  std::vector<std::vector<VertexId>> adj(list.num_vertices);
  for (const auto& e : list.edges) {
    if (e.src == e.dst) continue;
    adj[e.src].push_back(e.dst);
    adj[e.dst].push_back(e.src);
  }
  std::vector<std::uint32_t> level(list.num_vertices,
                                   core::BfsResult::kNoLevel);
  std::queue<VertexId> queue;
  level[root] = 0;
  queue.push(root);
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop();
    for (const VertexId v : adj[u]) {
      if (level[v] == core::BfsResult::kNoLevel) {
        level[v] = level[u] + 1;
        queue.push(v);
      }
    }
  }
  return level;
}

/// Run distributed BFS and compare levels against the reference.
void expect_bfs_matches(const EdgeList& list, int ranks,
                        const std::vector<VertexId>& roots,
                        const core::BfsConfig& config = {}) {
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    for (const auto root : roots) {
      const core::BfsResult mine = core::bfs(comm, g, root, config);
      const auto verdict = core::validate_bfs(comm, g, root, mine);
      EXPECT_TRUE(verdict.ok)
          << (verdict.errors.empty() ? "?" : verdict.errors.front());
      const auto levels = comm.allgatherv(mine.level);
      const auto want = reference_levels(list, root);
      ASSERT_EQ(levels.size(), want.size());
      for (std::size_t v = 0; v < want.size(); ++v) {
        EXPECT_EQ(levels[v], want[v]) << "root " << root << " vertex " << v;
      }
    }
  });
}

class BfsSweep
    : public ::testing::TestWithParam<std::tuple<int, core::Direction>> {};

INSTANTIATE_TEST_SUITE_P(
    RanksAndDirection, BfsSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(core::Direction::kAuto,
                                         core::Direction::kPush,
                                         core::Direction::kPull)));

TEST_P(BfsSweep, KroneckerLevelsMatchReference) {
  const auto [ranks, direction] = GetParam();
  KroneckerParams params;
  params.scale = 9;
  params.edgefactor = 8;
  core::BfsConfig config;
  config.direction = direction;
  expect_bfs_matches(kronecker_graph(params), ranks, {0, 100}, config);
}

TEST_P(BfsSweep, GridLevelsMatchReference) {
  const auto [ranks, direction] = GetParam();
  core::BfsConfig config;
  config.direction = direction;
  expect_bfs_matches(grid_graph(12, 17, 3), ranks, {0, 100}, config);
}

TEST(Bfs, StarAndPathShapes) {
  expect_bfs_matches(star_graph(64), 4, {0, 5});
  expect_bfs_matches(path_graph(64), 4, {0, 31, 63});
}

TEST(Bfs, DisconnectedComponentsStayUnreached) {
  EdgeList list;
  list.num_vertices = 6;
  list.edges = {{0, 1, 0.5f}, {3, 4, 0.5f}};
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, list, 6);
    const auto mine = core::bfs(comm, g, 0);
    const auto verdict = core::validate_bfs(comm, g, 0, mine);
    EXPECT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.reachable, 2u);
    EXPECT_EQ(verdict.max_level, 1u);
  });
}

TEST(Bfs, DirectionOptimizationActuallyGoesBottomUp) {
  // Dense power-law graph: the Beamer heuristic must fire.
  KroneckerParams params;
  params.scale = 10;
  params.edgefactor = 32;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::BfsStats stats;
    const auto mine = core::bfs(comm, g, 1, core::BfsConfig{}, &stats);
    EXPECT_GT(stats.bottom_up_rounds, 0u);
    EXPECT_GT(stats.top_down_rounds, 0u);
    EXPECT_TRUE(core::validate_bfs(comm, g, 1, mine).ok);
  });
}

TEST(Bfs, TopDownOnlyUnderPush) {
  KroneckerParams params;
  params.scale = 9;
  params.edgefactor = 16;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::BfsConfig config;
    config.direction = core::Direction::kPush;
    core::BfsStats stats;
    (void)core::bfs(comm, g, 1, config, &stats);
    EXPECT_EQ(stats.bottom_up_rounds, 0u);
    EXPECT_EQ(stats.rounds, stats.top_down_rounds);
  });
}

TEST(Bfs, BottomUpScansFewerEdgesOnDenseGraphs) {
  KroneckerParams params;
  params.scale = 10;
  params.edgefactor = 32;
  simmpi::World world(4);
  const auto scanned = world.run_collect<std::uint64_t>(
      [&](simmpi::Comm& comm) {
        const DistGraph g = build_kronecker(comm, params);
        core::BfsStats with;
        core::BfsStats without;
        core::BfsConfig off;
        off.direction = core::Direction::kPush;
        (void)core::bfs(comm, g, 1, core::BfsConfig{}, &with);
        (void)core::bfs(comm, g, 1, off, &without);
        return comm.allreduce_sum(with.edges_scanned) <
                       comm.allreduce_sum(without.edges_scanned)
                   ? std::uint64_t{1}
                   : std::uint64_t{0};
      });
  EXPECT_EQ(scanned[0], 1u);
}

TEST(Bfs, ValidatorCatchesCorruptedLevels) {
  KroneckerParams params;
  params.scale = 8;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::BfsResult mine = core::bfs(comm, g, 1);
    if (comm.rank() == 0) {
      for (std::size_t v = 0; v < mine.level.size(); ++v) {
        if (mine.level[v] != core::BfsResult::kNoLevel &&
            mine.level[v] > 1) {
          mine.level[v] += 1;  // break the level structure
          break;
        }
      }
    }
    EXPECT_FALSE(core::validate_bfs(comm, g, 1, mine).ok);
  });
}

TEST(Bfs, ValidatorCatchesForgedParent) {
  // Path graph: vertex 3 is adjacent to exactly {2, 4}, so pointing its
  // parent at vertex 15 must trip the tree-edge check.
  const EdgeList list = path_graph(16);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()), 16);
    core::BfsResult mine = core::bfs(comm, g, 0);
    if (comm.rank() == 0) mine.parent[3] = 15;
    EXPECT_FALSE(core::validate_bfs(comm, g, 0, mine).ok);
  });
}

TEST(Bfs, ValidatorCatchesOutOfRangeParent) {
  // A parent past the last vertex fails B1 with a verdict; it must not
  // escape as an exception from an owner lookup.
  const EdgeList list = path_graph(16);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()), 16);
    core::BfsResult mine = core::bfs(comm, g, 0);
    if (comm.rank() == 0) mine.parent[3] = 21;
    const auto verdict = core::validate_bfs(comm, g, 0, mine);
    EXPECT_FALSE(verdict.ok);
    ASSERT_FALSE(verdict.errors.empty());
    EXPECT_NE(verdict.errors.front().find("B1"), std::string::npos)
        << verdict.errors.front();
  });
}

TEST(Bfs, RootOutOfRangeThrows) {
  EdgeList list = path_graph(4);
  simmpi::World world(2);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph g = build_distributed(
                     comm, slice_for_rank(list, comm.rank(), comm.size()), 4);
                 (void)core::bfs(comm, g, 77);
               }),
               std::out_of_range);
}

TEST(Bfs, LevelsIdenticalAcrossRankCounts) {
  KroneckerParams params;
  params.scale = 9;
  std::vector<std::uint32_t> reference;
  for (int ranks : {1, 2, 4}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      const auto mine = core::bfs(comm, g, 2);
      const auto levels = comm.allgatherv(mine.level);
      if (comm.rank() == 0) {
        if (reference.empty()) {
          reference = levels;
        } else {
          EXPECT_EQ(levels, reference) << "ranks " << ranks;
        }
      }
    });
  }
}

}  // namespace
