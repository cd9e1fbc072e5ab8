// Randomized cross-engine agreement: for a sweep of seeds, build a random
// graph with random shape, pick random roots, and require that every
// engine (1-D delta-stepping in default and plain trim and with pull forced
// in light rounds and heavy phases, the async engine with packed and wide
// records, Bellman-Ford and the 2-D engine, each flat and through the
// two-level exchange) agrees with sequential Dijkstra and passes official
// validation.  The widest net in the suite: anything that breaks only on
// odd shapes (duplicate edges, dangling vertices, skewed degrees, rank
// counts that don't divide n) lands here.  The same graphs also take
// random mutation batches: every committed view must equal a fresh build,
// and incremental repair must equal a recompute.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/async_delta_stepping.hpp"
#include "core/bellman_ford.hpp"
#include "core/delta_stepping.hpp"
#include "core/delta_stepping_2d.hpp"
#include "core/dijkstra.hpp"
#include "core/validate.hpp"
#include "dyn/mutable_graph.hpp"
#include "dyn/repair.hpp"
#include "dyn_reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/grid2d.hpp"
#include "simmpi/comm.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(0, 16));

TEST_P(FuzzSweep, AllEnginesAgreeWithDijkstra) {
  const std::uint64_t seed = GetParam();
  util::SplitMix64 rng(util::hash64(0xf022, seed));

  // Random shape: n in [2, 400], m in [0, 4n], ranks in [1, 9].
  const auto n = static_cast<VertexId>(2 + rng.next_below(399));
  const auto m = rng.next_below(4 * n + 1);
  const int ranks = static_cast<int>(1 + rng.next_below(9));
  const EdgeList list = random_graph(n, m, seed * 77 + 5);
  const VertexId root = rng.next_below(n);

  const auto want = core::dijkstra(list, root);

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()), n);
    const Dist2DGraph g2 = build_2d(
        comm, slice_for_rank(list, comm.rank(), comm.size()), n);

    struct Attempt {
      const char* name;
      core::SsspResult result;
    };
    std::vector<Attempt> attempts;
    attempts.push_back({"delta-default", core::delta_stepping(comm, g, root)});
    attempts.push_back({"delta-plain", core::delta_stepping(
                                           comm, g, root,
                                           core::SsspConfig::plain())});
    core::SsspConfig pull_always;
    pull_always.direction = core::Direction::kPull;
    attempts.push_back({"delta-pull-always",
                        core::delta_stepping(comm, g, root, pull_always)});
    core::SsspConfig wide;
    wide.compress = false;
    core::SsspConfig two_level;
    two_level.hierarchical_group = 2;
    attempts.push_back({"async-default",
                        core::async_delta_stepping(comm, g, root)});
    attempts.push_back({"async-wide",
                        core::async_delta_stepping(comm, g, root, wide)});
    attempts.push_back({"bellman-ford", core::bellman_ford(comm, g, root)});
    attempts.push_back({"bellman-ford-two-level",
                        core::bellman_ford(comm, g, root, two_level)});
    attempts.push_back({"delta-2d", core::delta_stepping_2d(comm, g2, root)});
    attempts.push_back({"delta-2d-two-level",
                        core::delta_stepping_2d(comm, g2, root, two_level)});

    for (const auto& attempt : attempts) {
      const auto verdict = core::validate_sssp(comm, g, root, attempt.result);
      EXPECT_TRUE(verdict.ok)
          << attempt.name << " failed validation (seed " << seed << "): "
          << (verdict.errors.empty() ? "?" : verdict.errors.front());
      const auto whole = core::gather_result(comm, g, attempt.result);
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(whole.dist[v], want.dist[v])
            << attempt.name << " seed " << seed << " n " << n << " m " << m
            << " ranks " << ranks << " root " << root << " vertex " << v;
      }
    }
  });
}

/// A random mutation batch over the current edges: fresh inserts (some
/// self-loops), inserts over an existing edge at a random weight, deletes
/// of present and of (mostly) missing edges, sets up and down, and a
/// repeated op.
std::vector<dyn::EdgeUpdate> mutation_batch(
    util::SplitMix64& rng, VertexId n,
    const std::vector<test::EdgeTuple>& existing) {
  using dyn::EdgeUpdate;
  using dyn::UpdateOp;
  std::vector<EdgeUpdate> batch;
  const auto count = 1 + rng.next_below(24);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto roll = rng.next_below(6);
    const auto weight = static_cast<Weight>(rng.next_double());
    if (roll == 0 || existing.empty()) {
      batch.push_back(EdgeUpdate{rng.next_below(n), rng.next_below(n), weight,
                                 UpdateOp::kInsert});
      continue;
    }
    const auto& [u, v, w] = existing[rng.next_below(existing.size())];
    switch (roll) {
      case 1:
        batch.push_back(EdgeUpdate{u, v, weight, UpdateOp::kInsert});
        break;
      case 2:
        batch.push_back(EdgeUpdate{u, v, 0.0f, UpdateOp::kDelete});
        break;
      case 3:
        batch.push_back(EdgeUpdate{u, rng.next_below(n), 0.0f,
                                   UpdateOp::kDelete});
        break;
      case 4:
        batch.push_back(EdgeUpdate{u, v, w + weight, UpdateOp::kSet});
        break;
      default:
        batch.push_back(EdgeUpdate{u, v, w * weight, UpdateOp::kSet});
        break;
    }
  }
  batch.push_back(batch[rng.next_below(batch.size())]);
  return batch;
}

TEST_P(FuzzSweep, CommitsMatchFreshBuildAndRepair) {
  const std::uint64_t seed = GetParam();
  // The graph, rank count and root of AllEnginesAgreeWithDijkstra.
  util::SplitMix64 rng(util::hash64(0xf022, seed));
  const auto n = static_cast<VertexId>(2 + rng.next_below(399));
  const auto m = rng.next_below(4 * n + 1);
  const int ranks = static_cast<int>(1 + rng.next_below(9));
  const EdgeList list = random_graph(n, m, seed * 77 + 5);
  const VertexId root = rng.next_below(n);

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    dyn::MutableGraph mg(
        comm,
        build_distributed(comm, slice_for_rank(list, comm.rank(), ranks), n));
    test::RefGraph ref(list);
    core::SsspResult held = core::delta_stepping(comm, mg.view(), root);
    util::SplitMix64 batch_rng(util::hash64(0xf044, seed));  // same everywhere
    const auto batches = 4 + batch_rng.next_below(3);
    for (std::uint64_t b = 0; b < batches; ++b) {
      const auto existing = test::gather_view_edges(comm, mg.view());
      const auto summary = test::commit_spread(
          comm, mg, ref, mutation_batch(batch_rng, n, existing));
      const std::string where = "seed " + std::to_string(seed) + " n " +
                                std::to_string(n) + " ranks " +
                                std::to_string(ranks) + " batch " +
                                std::to_string(b);
      test::expect_fresh_build(comm, mg.view(), ref, /*with_hubs=*/false,
                               where);

      dyn::incremental_sssp_repair(comm, mg.view(), root, summary, held);
      const auto verdict = core::validate_sssp(comm, mg.view(), root, held);
      EXPECT_TRUE(verdict.ok)
          << "repair failed validation, " << where << ": "
          << (verdict.errors.empty() ? "?" : verdict.errors.front());
      // Gathered, the distances are the same on every rank, so a failed
      // assertion returns from every rank at once.
      const auto repaired = core::gather_result(comm, mg.view(), held);
      const auto recomputed = core::gather_result(
          comm, mg.view(), core::delta_stepping(comm, mg.view(), root));
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(repaired.dist[v]),
                  std::bit_cast<std::uint32_t>(recomputed.dist[v]))
            << where << " vertex " << v;
      }
    }
  });
}

TEST_P(FuzzSweep, MultiSourceAgreesWithMinOfSingles) {
  const std::uint64_t seed = GetParam();
  util::SplitMix64 rng(util::hash64(0xf033, seed));
  const auto n = static_cast<VertexId>(3 + rng.next_below(200));
  const EdgeList list = random_graph(n, 3 * n, seed * 131 + 17);
  std::vector<VertexId> roots;
  const std::size_t num_roots = 1 + rng.next_below(4);
  while (roots.size() < num_roots) {
    const VertexId candidate = rng.next_below(n);
    if (std::find(roots.begin(), roots.end(), candidate) == roots.end()) {
      roots.push_back(candidate);
    }
  }
  const int ranks = static_cast<int>(1 + rng.next_below(5));

  std::vector<float> want(n, kInfDistance);
  for (const auto root : roots) {
    const auto single = core::dijkstra(list, root);
    for (VertexId v = 0; v < n; ++v) {
      want[v] = std::min(want[v], single.dist[v]);
    }
  }

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()), n);
    const auto mine = core::delta_stepping_multi(comm, g, roots);
    const auto whole = core::gather_result(comm, g, mine);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(whole.dist[v], want[v]) << "seed " << seed << " vertex " << v;
    }
  });
}

}  // namespace
