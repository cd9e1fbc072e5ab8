// Tests for the official result checks: they must accept every correct
// result and reject each class of corruption.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/delta_stepping.hpp"
#include "core/dijkstra.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/shard.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

/// Build, solve, corrupt (via `mutate` on rank 0's slice), validate.
core::ValidationReport corrupted_verdict(
    const EdgeList& list, VertexId root,
    const std::function<void(core::SsspResult&, const DistGraph&)>& mutate) {
  core::ValidationReport verdict;
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    core::SsspResult mine = core::delta_stepping(comm, g, root);
    if (comm.rank() == 0) mutate(mine, g);
    const auto v = core::validate_sssp(comm, g, root, mine);
    if (comm.rank() == 0) verdict = v;
  });
  return verdict;
}

const EdgeList kGrid = grid_graph(6, 8, 77);

TEST(Validate, AcceptsCorrectResult) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult&, const DistGraph&) {});
  EXPECT_TRUE(verdict.ok);
  EXPECT_TRUE(verdict.errors.empty());
  EXPECT_EQ(verdict.reachable, kGrid.num_vertices);
  EXPECT_GT(verdict.edges_checked, 0u);
}

TEST(Validate, DetectsInflatedDistance) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.dist[3] += 5.0f;  // now some edge into vertex 3 is relaxable
      });
  EXPECT_FALSE(verdict.ok);
  ASSERT_FALSE(verdict.errors.empty());
}

TEST(Validate, DetectsDeflatedDistance) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.dist[5] *= 0.1f;  // shorter than any real path: V3 must fail
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsBogusParent) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph& g) {
        // Point a vertex at a non-adjacent "parent" (grid vertex 2 is not
        // adjacent to the far corner).
        r.parent[2] = g.num_vertices - 1;
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsFakeUnreachable) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.dist[4] = kInfDistance;
        r.parent[4] = kNoVertex;  // V2: reachable neighbours contradict it
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsReachabilityMismatch) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.parent[6] = kNoVertex;  // finite dist but no parent: V1
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsParentCycle) {
  // Two vertices pointing at each other (with plausible distances) must be
  // caught by the pointer-doubling check even when V3 is fooled.
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {{0, 1, 0.5f}, {1, 2, 0.25f}, {2, 3, 0.25f}, {3, 1, 0.25f}};
  core::ValidationReport verdict;
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, list, 4);
    core::SsspResult mine = core::delta_stepping(comm, g, 0);
    // Forge a 2-cycle between 2 and 3 with self-consistent distances:
    // dist[2] = dist[3] + w(3,2), dist[3] = dist[2] + w(2,3) cannot both
    // hold with positive weights, so force V4's job with equal distances.
    mine.parent[2] = 3;
    mine.parent[3] = 2;
    mine.dist[2] = 1.0f;
    mine.dist[3] = 1.0f;
    verdict = core::validate_sssp(comm, g, 0, mine);
  });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsCrossRankParentCycle) {
  // Vertices 1, 3 and 5 sit on ranks 0, 1 and 2, all at distance 1 from
  // the root and joined by zero-weight edges.  A parent cycle through them
  // passes V1-V3, so only V4's walk over the gathered parents can see it.
  EdgeList list;
  list.num_vertices = 6;
  list.edges = {{0, 1, 1.0f}, {0, 3, 1.0f}, {0, 5, 1.0f},
                {1, 3, 0.0f}, {3, 5, 0.0f}, {5, 1, 0.0f}};
  core::ValidationReport verdict;
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()), 6);
    core::SsspResult mine = core::delta_stepping(comm, g, 0);
    ASSERT_EQ(g.part.count(comm.rank()), 2u);
    ASSERT_EQ(mine.dist[1], 1.0f);
    // Local slot 1 holds vertex 1, 3 or 5: point it at the one before it,
    // wrapping from 1 to 5.
    mine.parent[1] = comm.rank() == 0 ? 5 : g.part.begin(comm.rank()) - 1;
    const auto v = core::validate_sssp(comm, g, 0, mine);
    if (comm.rank() == 0) verdict = v;
  });
  EXPECT_FALSE(verdict.ok);
  ASSERT_FALSE(verdict.errors.empty());
  EXPECT_NE(verdict.errors.front().find("V4"), std::string::npos)
      << verdict.errors.front();
}

TEST(Validate, DetectsOutOfRangeParent) {
  // A parent past the last vertex fails V1 with a verdict; it must not
  // escape as an exception from an owner lookup.
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph& g) {
        r.parent[2] = g.num_vertices + 5;
      });
  EXPECT_FALSE(verdict.ok);
  ASSERT_FALSE(verdict.errors.empty());
  EXPECT_NE(verdict.errors.front().find("V1"), std::string::npos)
      << verdict.errors.front();
}

TEST(Validate, DetectsOutOfRangeEdgeTarget) {
  // A mapped shard is not checked per edge.  Vertex 1's row names vertex 9
  // of 4: V2 must fail there without reading past the gathered distances.
  const std::string dir = ::testing::TempDir() + "/g500_validate_bad_target";
  std::filesystem::create_directories(dir);
  {
    ShardWriter::Meta meta;
    meta.num_vertices = 4;
    meta.num_local = 4;
    meta.num_input_edges = 2;
    ShardWriter writer(shard_path(dir, 0, 1), meta);
    const std::vector<std::uint64_t> offsets{0, 1, 2, 2, 2};
    const std::vector<VertexId> dst{1, 9};
    const std::vector<Weight> w{0.5f, 0.5f};
    writer.append_dst(dst);
    writer.append_w(w);
    writer.finish(offsets);
  }
  core::ValidationReport verdict;
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = load_sharded(comm, dir);
    core::SsspResult mine;
    mine.dist = {0.0f, 0.5f, kInfDistance, kInfDistance};
    mine.parent = {0, 0, kNoVertex, kNoVertex};
    verdict = core::validate_sssp(comm, g, 0, mine);
  });
  std::filesystem::remove_all(dir);
  EXPECT_FALSE(verdict.ok);
  ASSERT_FALSE(verdict.errors.empty());
  EXPECT_NE(verdict.errors.front().find("V2"), std::string::npos)
      << verdict.errors.front();
}

TEST(Validate, CollectivesDoNotGrowWithTreeDepth) {
  // Two gathers plus the verdict's four reductions, whether the parent
  // tree is 3 or 599 hops deep.
  auto collectives = [](VertexId n) {
    const EdgeList path = path_graph(n, 3);
    simmpi::World world(2);
    const auto rounds =
        world.run_collect<std::uint64_t>([&](simmpi::Comm& comm) {
          const DistGraph g = build_distributed(
              comm, slice_for_rank(path, comm.rank(), comm.size()), n);
          const auto mine = core::delta_stepping(comm, g, 0);
          const std::uint64_t before = comm.stats().rounds();
          const auto verdict = core::validate_sssp(comm, g, 0, mine);
          EXPECT_TRUE(verdict.ok);
          return comm.stats().rounds() - before;
        });
    EXPECT_EQ(rounds[0], rounds[1]);
    return rounds[0];
  };
  const std::uint64_t shallow = collectives(4);
  EXPECT_EQ(shallow, 6u);
  EXPECT_EQ(collectives(600), shallow);
}

TEST(Validate, DetectsWrongRootDistance) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.dist[0] = 0.5f;  // root must be 0
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsMalformedResultSize) {
  const auto verdict = corrupted_verdict(
      kGrid, 0,
      [](core::SsspResult& r, const DistGraph&) { r.dist.pop_back(); });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, ErrorsArePropagatedToAllRanks) {
  simmpi::World world(4);
  const auto verdicts =
      world.run_collect<int>([&](simmpi::Comm& comm) {
        const DistGraph g = build_distributed(
            comm, slice_for_rank(kGrid, comm.rank(), comm.size()),
            kGrid.num_vertices);
        core::SsspResult mine = core::delta_stepping(comm, g, 0);
        if (comm.rank() == 2 && !mine.dist.empty()) {
          mine.dist[0] += 3.0f;  // corrupt a non-reporting rank
        }
        const auto v = core::validate_sssp(comm, g, 0, mine);
        return v.ok ? 1 : 0;
      });
  for (const int ok : verdicts) EXPECT_EQ(ok, 0);
}

TEST(Validate, AcceptsFloatSumsPast256) {
  // A 600-hop path reaches distances past 256, where float32 spacing is
  // 3e-5: the engine's float sum du + w differs from the exact double sum
  // by more than the 1e-5 tolerance, and V2 must not reject it for that.
  const EdgeList path = path_graph(600, 3);
  const auto want = core::dijkstra(path, 0);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(path, comm.rank(), comm.size()),
        path.num_vertices);
    const auto mine = core::delta_stepping(comm, g, 0);
    const auto whole = core::gather_result(comm, g, mine);
    ASSERT_EQ(whole.dist, want.dist);
    ASSERT_GT(whole.dist.back(), 256.0f);
    const auto verdict = core::validate_sssp(comm, g, 0, mine);
    EXPECT_TRUE(verdict.ok)
        << (verdict.errors.empty() ? "?" : verdict.errors.front());
  });
}

TEST(Validate, UnreachableVerticesAreAccepted) {
  EdgeList two_islands;
  two_islands.num_vertices = 6;
  two_islands.edges = {{0, 1, 0.3f}, {3, 4, 0.3f}, {4, 5, 0.3f}};
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(two_islands, comm.rank(), comm.size()), 6);
    const auto mine = core::delta_stepping(comm, g, 0);
    const auto verdict = core::validate_sssp(comm, g, 0, mine);
    EXPECT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.reachable, 2u);  // only {0, 1}
  });
}

}  // namespace
