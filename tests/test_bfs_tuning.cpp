// Direction sweep of the BFS: levels must not depend on the direction
// (top-down, bottom-up or Beamer's switch), and a forced direction must
// hold in every round.
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

class BfsTuningSweep
    : public ::testing::TestWithParam<std::tuple<core::Direction, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Directions, BfsTuningSweep,
    ::testing::Combine(::testing::Values(core::Direction::kAuto,
                                         core::Direction::kPush,
                                         core::Direction::kPull),
                       ::testing::Values(1, 4)));

TEST_P(BfsTuningSweep, LevelsIndependentOfDirection) {
  const auto [direction, ranks] = GetParam();
  KroneckerParams params;
  params.scale = 9;
  params.edgefactor = 16;
  const EdgeList whole = kronecker_graph(params);
  const auto want = reference_levels(whole, 1);

  simmpi::World world(ranks);
  world.run([&, direction = direction](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(whole, comm.rank(), comm.size()),
        whole.num_vertices);
    core::BfsConfig config;
    config.direction = direction;
    const auto mine = core::bfs(comm, g, 1, config);
    EXPECT_TRUE(core::validate_bfs(comm, g, 1, mine).ok)
        << core::direction_name(direction);
    const auto levels = comm.allgatherv(mine.level);
    for (std::size_t v = 0; v < want.size(); ++v) {
      ASSERT_EQ(levels[v], want[v])
          << core::direction_name(direction) << " vertex " << v;
    }
  });
}

TEST(BfsTuning, ForcedDirectionHoldsEveryRound) {
  // kPull runs bottom-up every round and kPush top-down every round; only
  // kAuto mixes them (DirectionOptimizationActuallyGoesBottomUp).
  KroneckerParams params;
  params.scale = 10;
  params.edgefactor = 16;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::BfsConfig pull;
    pull.direction = core::Direction::kPull;
    core::BfsConfig push;
    push.direction = core::Direction::kPush;
    core::BfsStats pull_stats;
    core::BfsStats push_stats;
    const auto pulled = core::bfs(comm, g, 1, pull, &pull_stats);
    const auto pushed = core::bfs(comm, g, 1, push, &push_stats);
    EXPECT_TRUE(core::validate_bfs(comm, g, 1, pulled).ok);
    EXPECT_TRUE(core::validate_bfs(comm, g, 1, pushed).ok);
    EXPECT_GT(pull_stats.rounds, 0u);
    EXPECT_EQ(pull_stats.bottom_up_rounds, pull_stats.rounds);
    EXPECT_EQ(pull_stats.top_down_rounds, 0u);
    EXPECT_EQ(push_stats.bottom_up_rounds, 0u);
    EXPECT_EQ(push_stats.top_down_rounds, push_stats.rounds);
  });
}

}  // namespace
