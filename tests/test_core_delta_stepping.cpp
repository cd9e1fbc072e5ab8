// Correctness tests for the delta-stepping engine: oracle sweeps over
// graph shapes x rank counts x optimization configurations, plus targeted
// feature and edge-case tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>

#include "core/runner.hpp"
#include "dyn/mutable_graph.hpp"
#include "dyn_reference.hpp"
#include "graph/shard.hpp"
#include "sssp_test_util.hpp"

namespace {

using namespace g500;
using namespace g500::graph;
using g500::testing::EngineKind;
using g500::testing::expect_matches_oracle;
using g500::testing::GraphCase;
using g500::testing::standard_graph_cases;

// --------------------------------------------------------------------------
// Main oracle sweep: every standard graph x rank count x config variant.
// --------------------------------------------------------------------------

struct ConfigCase {
  std::string name;
  core::SsspConfig config;
};

std::vector<ConfigCase> config_cases() {
  std::vector<ConfigCase> cases;
  cases.push_back({"default", core::SsspConfig{}});
  cases.push_back({"plain", core::SsspConfig::plain()});
  {
    core::SsspConfig c = core::SsspConfig::plain();
    c.coalesce = true;
    cases.push_back({"coalesce_only", c});
  }
  {
    core::SsspConfig c = core::SsspConfig::plain();
    c.hub_cache = true;
    cases.push_back({"hub_only", c});
  }
  {
    core::SsspConfig c = core::SsspConfig::plain();
    c.local_fusion = true;
    cases.push_back({"fusion_only", c});
  }
  {
    core::SsspConfig c;
    c.direction_opt = true;
    c.pull_threshold = 0.0;  // pull as aggressively as possible
    c.pull_bias = 0.0;
    cases.push_back({"pull_always", c});
  }
  {
    core::SsspConfig c;
    c.delta = 0.05;
    cases.push_back({"small_delta", c});
  }
  {
    core::SsspConfig c;
    c.delta = 0.9;
    cases.push_back({"large_delta", c});
  }
  {
    core::SsspConfig c;
    c.delta = 10.0;  // one bucket: degenerates to Bellman-Ford-ish
    cases.push_back({"huge_delta", c});
  }
  {
    core::SsspConfig c = core::SsspConfig::plain();
    c.compress = true;
    cases.push_back({"compress_only", c});
  }
  {
    core::SsspConfig c;
    c.hierarchical_group = 3;
    cases.push_back({"hierarchical", c});
  }
  return cases;
}

class DeltaSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    GraphRankConfig, DeltaSweep,
    ::testing::Combine(::testing::Range(0, 8),   // graph case index
                       ::testing::Values(1, 2, 4, 7),
                       ::testing::Range(0, 11)),  // config case index
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      const auto graphs = standard_graph_cases();
      const auto configs = config_cases();
      return graphs[std::get<0>(info.param)].name + "_r" +
             std::to_string(std::get<1>(info.param)) + "_" +
             configs[std::get<2>(info.param)].name;
    });

TEST_P(DeltaSweep, MatchesDijkstraAndValidates) {
  const auto [graph_idx, ranks, config_idx] = GetParam();
  const GraphCase gc = standard_graph_cases()[graph_idx];
  const ConfigCase cc = config_cases()[config_idx];
  const EdgeList list = gc.make();
  expect_matches_oracle(list, ranks, {0, list.num_vertices / 2}, cc.config);
}

// --------------------------------------------------------------------------
// Targeted feature tests.
// --------------------------------------------------------------------------

TEST(DeltaStepping, AutoDeltaTracksAverageDegree) {
  KroneckerParams params;
  params.scale = 8;
  params.edgefactor = 8;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const double delta = core::auto_delta(g);
    const double avg_deg = static_cast<double>(g.num_directed_edges) /
                           static_cast<double>(g.num_vertices);
    EXPECT_NEAR(delta, 1.0 / avg_deg, 1e-12);
    EXPECT_GE(delta, 1.0 / 64.0);
    EXPECT_LE(delta, 1.0);
  });
}

TEST(DeltaStepping, DeterministicAcrossRepeatedRuns) {
  KroneckerParams params;
  params.scale = 9;
  simmpi::World world(4);
  std::vector<float> first;
  for (int round = 0; round < 3; ++round) {
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      const auto mine = core::delta_stepping(comm, g, 3);
      const auto whole = core::gather_result(comm, g, mine);
      if (comm.rank() == 0) {
        if (round == 0) {
          first = whole.dist;
        } else {
          ASSERT_EQ(whole.dist.size(), first.size());
          for (std::size_t v = 0; v < first.size(); ++v) {
            EXPECT_EQ(whole.dist[v], first[v]) << "run " << round;
          }
        }
      }
    });
  }
}

TEST(DeltaStepping, DistancesIdenticalAcrossRankCounts) {
  KroneckerParams params;
  params.scale = 8;
  std::vector<float> reference;
  for (int ranks : {1, 2, 4, 8}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      const auto mine = core::delta_stepping(comm, g, 5);
      const auto whole = core::gather_result(comm, g, mine);
      if (comm.rank() == 0) {
        if (reference.empty()) {
          reference = whole.dist;
        } else {
          for (std::size_t v = 0; v < reference.size(); ++v) {
            EXPECT_EQ(whole.dist[v], reference[v])
                << "ranks " << ranks << " vertex " << v;
          }
        }
      }
    });
  }
}

TEST(DeltaStepping, PullModeActuallyEngagesOnDenseFrontiers) {
  // A complete-ish graph with pull forced on must record pull rounds.
  const EdgeList dense = complete_graph(96, 31);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(dense, comm.rank(), comm.size()),
        dense.num_vertices);
    core::SsspConfig c;
    c.pull_threshold = 0.0;
    c.pull_bias = 0.0;
    core::SsspStats stats;
    const auto mine = core::delta_stepping(comm, g, 0, c, &stats);
    EXPECT_GT(stats.pull_rounds, 0u);
    const auto verdict = core::validate_sssp(comm, g, 0, mine);
    EXPECT_TRUE(verdict.ok);
  });
}

TEST(DeltaStepping, UnreachedEdgeGuardPushesUntilTheGraphIsReached) {
  // With no frontier threshold and the default bias, the byte model alone
  // would pull bucket 0's heavy phase: R's heavy edges outweigh one
  // broadcast per settled vertex.  But nearly every vertex is unreached
  // then, so an owner scan would read almost every heavy edge; the guard
  // keeps the bucket pushing.  Once the root's heavy edges reach the whole
  // complete graph, later buckets pull.
  const EdgeList dense = complete_graph(96, 31);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(dense, comm.rank(), comm.size()),
        dense.num_vertices);
    core::SsspConfig c;
    c.pull_threshold = 0.0;
    core::RunControl first_bucket;
    first_bucket.deadline_buckets = 1;
    core::SsspStats first;
    (void)core::delta_stepping(comm, g, 0, c, &first, first_bucket);
    EXPECT_EQ(first.buckets_processed, 1u);
    EXPECT_EQ(first.pull_rounds, 0u);
    core::SsspStats whole;
    const auto mine = core::delta_stepping(comm, g, 0, c, &whole);
    EXPECT_GT(whole.pull_rounds, 0u);
    EXPECT_TRUE(core::validate_sssp(comm, g, 0, mine).ok);
  });
}

TEST(DeltaStepping, ForcedPullSendsNoRecordsInEitherPhase) {
  // With pull forced, light rounds and heavy phases alike broadcast the
  // frontier and relax on the owner, so no candidate crosses alltoallv.
  KroneckerParams params;
  params.scale = 10;
  for (const int ranks : {1, 3, 4}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      core::SsspConfig pull;
      pull.pull_threshold = 0.0;
      pull.pull_bias = 0.0;
      pull.collect_bucket_trace = true;
      core::SsspStats pull_stats;
      core::SsspStats default_stats;
      const std::uint64_t before =
          comm.allreduce_sum(comm.stats().alltoallv.bytes);
      const auto pulled = core::delta_stepping(comm, g, 1, pull, &pull_stats);
      const std::uint64_t after =
          comm.allreduce_sum(comm.stats().alltoallv.bytes);
      const auto reference =
          core::delta_stepping(comm, g, 1, core::SsspConfig{}, &default_stats);

      EXPECT_EQ(comm.allreduce_sum(pull_stats.relax_sent), 0u)
          << ranks << " ranks";
      EXPECT_EQ(after, before) << ranks << " ranks";
      EXPECT_GT(pull_stats.pull_rounds, 0u);
      EXPECT_EQ(pulled.dist, reference.dist) << ranks << " ranks";
      EXPECT_TRUE(core::validate_sssp(comm, g, 1, pulled).ok);
      // Every bucket round counts once, by its direction.
      for (const core::SsspStats* s : {&pull_stats, &default_stats}) {
        EXPECT_EQ(s->push_rounds + s->pull_rounds,
                  s->light_iterations + s->heavy_phases);
      }
      // A pulled round broadcasts each frontier vertex once, so the
      // broadcasts cannot outnumber the light rounds' global frontiers
      // plus the settled sets.
      std::uint64_t light_frontiers = 0;
      std::uint64_t settled = 0;
      for (const auto& row : pull_stats.bucket_trace) {
        light_frontiers += row.frontier_total;
        settled += row.settled;
      }
      EXPECT_LE(comm.allreduce_sum(pull_stats.frontier_broadcast),
                light_frontiers + comm.allreduce_sum(settled));
    });
  }
}

TEST(DeltaStepping, PullSumsRideTheLightAllreduceOnlyWhenPullIsOn) {
  // R's size and heavy-edge count and the unreached vertices' light and
  // heavy edges join the light loop's allreduce only where pulling is
  // possible.  Every run pays 8 bytes per bucket minimum (one per bucket
  // plus the final one); a light allreduce (one per light round plus the
  // drained one) carries 16 bytes with direction_opt off and 48 with it
  // on.
  KroneckerParams params;
  params.scale = 10;
  for (const bool direction_opt : {false, true}) {
    simmpi::World world(3);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      core::SsspConfig config = core::SsspConfig::plain();
      config.direction_opt = direction_opt;
      core::SsspStats stats;
      const std::uint64_t before = comm.stats().allreduce.bytes;
      (void)core::delta_stepping(comm, g, 1, config, &stats);
      const std::uint64_t bytes = comm.stats().allreduce.bytes - before;
      if (!direction_opt) {
        EXPECT_EQ(stats.pull_rounds, 0u);
      }
      EXPECT_EQ(bytes, 8 * (stats.buckets_processed + 1) +
                           (direction_opt ? 48u : 16u) *
                               (stats.light_iterations +
                                stats.buckets_processed))
          << (direction_opt ? "direction_opt on" : "direction_opt off");
    });
  }
}

TEST(DeltaStepping, HubCacheFiltersTrafficOnStarGraph) {
  const EdgeList star = star_graph(256, 33);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.hub_count = 4;
    const DistGraph g = build_distributed(
        comm, slice_for_rank(star, comm.rank(), comm.size()),
        star.num_vertices, opts);
    core::SsspConfig with = core::SsspConfig::plain();
    with.hub_cache = true;
    core::SsspStats stats;
    // Root at a leaf: every other leaf relaxes toward the center.
    const auto mine = core::delta_stepping(comm, g, 5, with, &stats);
    const auto filtered = comm.allreduce_sum(stats.filtered_hub);
    EXPECT_GT(filtered, 0u);
    EXPECT_TRUE(core::validate_sssp(comm, g, 5, mine).ok);
  });
}

TEST(DeltaStepping, LocalFusionAvoidsSelfMessages) {
  KroneckerParams params;
  params.scale = 8;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspConfig fused = core::SsspConfig::plain();
    fused.local_fusion = true;
    core::SsspStats stats;
    (void)core::delta_stepping(comm, g, 1, fused, &stats);
    EXPECT_GT(comm.allreduce_sum(stats.fused_local), 0u);
  });
}

TEST(DeltaStepping, CoalescingDropsDuplicateCandidates) {
  // Kronecker graphs have many parallel paths into hubs; a round's worth of
  // candidates per target collapses to one.
  KroneckerParams params;
  params.scale = 9;
  params.edgefactor = 16;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspConfig c = core::SsspConfig::plain();
    c.coalesce = true;
    core::SsspStats stats;
    (void)core::delta_stepping(comm, g, 1, c, &stats);
    EXPECT_GT(comm.allreduce_sum(stats.filtered_coalesce), 0u);
  });
}

TEST(DeltaStepping, StatsBucketsAgreeAcrossRanks) {
  KroneckerParams params;
  params.scale = 8;
  simmpi::World world(4);
  const auto counts = world.run_collect<std::uint64_t>(
      [&](simmpi::Comm& comm) {
        const DistGraph g = build_kronecker(comm, params);
        core::SsspStats stats;
        (void)core::delta_stepping(comm, g, 2, core::SsspConfig{}, &stats);
        return stats.buckets_processed;
      });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(counts[r], counts[0]);
}

// --------------------------------------------------------------------------
// Edge cases.
// --------------------------------------------------------------------------

TEST(DeltaStepping, BucketTraceRecordsEveryBucket) {
  KroneckerParams params;
  params.scale = 9;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspConfig config;
    config.collect_bucket_trace = true;
    core::SsspStats stats;
    (void)core::delta_stepping(comm, g, 1, config, &stats);
    ASSERT_EQ(stats.bucket_trace.size(), stats.buckets_processed);
    std::uint64_t rounds = 0;
    std::uint64_t prev_bucket = 0;
    for (std::size_t i = 0; i < stats.bucket_trace.size(); ++i) {
      const auto& row = stats.bucket_trace[i];
      rounds += row.light_rounds;
      if (i > 0) {
        EXPECT_GT(row.bucket, prev_bucket);  // strictly ascending
      }
      prev_bucket = row.bucket;
      EXPECT_GE(row.seconds, 0.0);
    }
    EXPECT_EQ(rounds, stats.light_iterations);
    // Off by default.
    core::SsspStats quiet;
    (void)core::delta_stepping(comm, g, 1, core::SsspConfig{}, &quiet);
    EXPECT_TRUE(quiet.bucket_trace.empty());
  });
}

TEST(DeltaStepping, MultiSourceEqualsMinOverSingleSources) {
  const EdgeList list = grid_graph(12, 12, 51);
  const std::vector<VertexId> roots = {0, 77, 143};
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    const auto mine = core::delta_stepping_multi(comm, g, roots);
    const auto whole = core::gather_result(comm, g, mine);
    // Oracle: element-wise min over single-source Dijkstras.
    std::vector<float> want(list.num_vertices, kInfDistance);
    for (const auto root : roots) {
      const auto single = core::dijkstra(list, root);
      for (VertexId v = 0; v < list.num_vertices; ++v) {
        want[v] = std::min(want[v], single.dist[v]);
      }
    }
    for (VertexId v = 0; v < list.num_vertices; ++v) {
      EXPECT_FLOAT_EQ(whole.dist[v], want[v]) << "vertex " << v;
    }
    // Every root anchors itself.
    for (const auto root : roots) {
      EXPECT_EQ(whole.parent[root], root);
      EXPECT_EQ(whole.dist[root], 0.0f);
    }
  });
}

TEST(DeltaStepping, MultiSourceOracleAcrossAllGraphShapes) {
  // Batched nearest-root distances must equal the per-root Dijkstra
  // minimum on every standard graph shape, including when some roots are
  // isolated vertices appended past the generated edges.
  for (const auto& gcase : g500::testing::standard_graph_cases()) {
    EdgeList list = gcase.make();
    const VertexId isolated_a = list.num_vertices;
    const VertexId isolated_b = list.num_vertices + 1;
    list.num_vertices += 2;  // two isolated vertices, no edges touch them
    const std::vector<VertexId> roots = {0, list.num_vertices / 3,
                                         isolated_a, isolated_b};
    simmpi::World world(3);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_distributed(
          comm, slice_for_rank(list, comm.rank(), comm.size()),
          list.num_vertices);
      const auto mine = core::delta_stepping_multi(comm, g, roots);
      const auto whole = core::gather_result(comm, g, mine);
      std::vector<float> want(list.num_vertices, kInfDistance);
      for (const auto root : roots) {
        const auto single = core::dijkstra(list, root);
        for (VertexId v = 0; v < list.num_vertices; ++v) {
          want[v] = std::min(want[v], single.dist[v]);
        }
      }
      ASSERT_EQ(whole.dist.size(), want.size()) << gcase.name;
      for (VertexId v = 0; v < list.num_vertices; ++v) {
        EXPECT_FLOAT_EQ(whole.dist[v], want[v])
            << gcase.name << " vertex " << v;
      }
      // Isolated roots reach only themselves but still anchor there.
      EXPECT_EQ(whole.dist[isolated_a], 0.0f) << gcase.name;
      EXPECT_EQ(whole.parent[isolated_b], isolated_b) << gcase.name;
    });
  }
}

TEST(DeltaStepping, MultiSourceRejectsEmptyAndBadRoots) {
  const EdgeList list = path_graph(8);
  simmpi::World world(2);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph g = build_distributed(
                     comm, slice_for_rank(list, comm.rank(), comm.size()), 8);
                 (void)core::delta_stepping_multi(comm, g, {});
               }),
               std::invalid_argument);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph g = build_distributed(
                     comm, slice_for_rank(list, comm.rank(), comm.size()), 8);
                 (void)core::delta_stepping_multi(comm, g, {1, 99});
               }),
               std::out_of_range);
}

TEST(DeltaStepping, RootOnlyGraph) {
  EdgeList isolated;
  isolated.num_vertices = 5;  // no edges at all
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, isolated, 5);
    const auto mine = core::delta_stepping(comm, g, 2);
    const auto whole = core::gather_result(comm, g, mine);
    EXPECT_FLOAT_EQ(whole.dist[2], 0.0f);
    for (VertexId v = 0; v < 5; ++v) {
      if (v != 2) {
        EXPECT_EQ(whole.dist[v], kInfDistance);
      }
    }
    EXPECT_TRUE(core::validate_sssp(comm, g, 2, mine).ok);
  });
}

TEST(DeltaStepping, DisconnectedComponents) {
  // Two separate paths: 0-1-2 and 3-4-5.
  EdgeList g;
  g.num_vertices = 6;
  g.edges = {{0, 1, 0.5f}, {1, 2, 0.5f}, {3, 4, 0.5f}, {4, 5, 0.5f}};
  expect_matches_oracle(g, 3, {0, 4});
}

TEST(DeltaStepping, MoreRanksThanVertices) {
  EdgeList tiny;
  tiny.num_vertices = 3;
  tiny.edges = {{0, 1, 0.4f}, {1, 2, 0.4f}};
  expect_matches_oracle(tiny, 8, {0, 1, 2});
}

TEST(DeltaStepping, TinyWeightsNearZero) {
  EdgeList g;
  g.num_vertices = 4;
  g.edges = {{0, 1, 1e-9f}, {1, 2, 1e-9f}, {2, 3, 1e-9f}};
  core::SsspConfig c;
  c.delta = 0.5;
  expect_matches_oracle(g, 2, {0}, c);
}

TEST(DeltaStepping, RootOutOfRangeThrows) {
  EdgeList g = path_graph(4);
  simmpi::World world(2);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph dg = build_distributed(
                     comm, slice_for_rank(g, comm.rank(), comm.size()), 4);
                 (void)core::delta_stepping(comm, dg, 99);
               }),
               std::out_of_range);
}

TEST(DeltaStepping, MaxBucketsGuardFires) {
  const EdgeList g = path_graph(256, 41);
  simmpi::World world(2);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph dg = build_distributed(
                     comm, slice_for_rank(g, comm.rank(), comm.size()), 256);
                 core::SsspConfig c;
                 c.delta = 0.001;  // a path forces many buckets
                 c.max_buckets = 3;
                 (void)core::delta_stepping(comm, dg, 0, c);
               }),
               std::runtime_error);
}

TEST(DeltaStepping, SelfLoopAtRootIsHarmless) {
  EdgeList g;
  g.num_vertices = 2;
  g.edges = {{0, 0, 0.1f}, {0, 1, 0.5f}};
  expect_matches_oracle(g, 2, {0});
}

TEST(DeltaStepping, CompressionHalvesRequestBytes) {
  KroneckerParams params;
  params.scale = 10;
  auto solve_bytes = [&](bool compress) {
    simmpi::World world(4);
    std::uint64_t bytes = 0;
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      core::SsspConfig c = core::SsspConfig::plain();
      c.compress = compress;
      const std::uint64_t before =
          comm.allreduce_sum(comm.stats().alltoallv.bytes);
      const auto mine = core::delta_stepping(comm, g, 1, c);
      const std::uint64_t after =
          comm.allreduce_sum(comm.stats().alltoallv.bytes);
      EXPECT_TRUE(core::validate_sssp(comm, g, 1, mine).ok);
      if (comm.rank() == 0) bytes = after - before;
    });
    return bytes;
  };
  const auto wide = solve_bytes(false);
  const auto packed = solve_bytes(true);
  // sizeof(PackedRelaxRequest)=12 vs sizeof(RelaxRequest)=24: exactly half.
  EXPECT_EQ(packed * 2, wide);
}

TEST(DeltaStepping, PullReadsOnlyTheCsr) {
  // The owner-side pull reads only the CSR rows, so a pulled solve sends
  // no record, moves no alltoallv byte, and matches push-only.
  KroneckerParams params;
  params.scale = 7;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspConfig c;
    c.pull_threshold = 0.0;
    c.pull_bias = 0.0;
    core::SsspStats stats;
    const std::uint64_t before =
        comm.allreduce_sum(comm.stats().alltoallv.bytes);
    const auto mine = core::delta_stepping(comm, g, 0, c, &stats);
    const std::uint64_t after =
        comm.allreduce_sum(comm.stats().alltoallv.bytes);
    EXPECT_GT(stats.pull_rounds, 0u);
    EXPECT_EQ(comm.allreduce_sum(stats.relax_sent), 0u);
    EXPECT_EQ(after, before);
    c.direction_opt = false;
    EXPECT_EQ(mine.dist, core::delta_stepping(comm, g, 0, c).dist);
    EXPECT_TRUE(core::validate_sssp(comm, g, 0, mine).ok);
  });
}

/// Solve from `root` twice under `control` (fresh, pruned, a repair or a
/// restore), with every round that has edges to relax pulled and with
/// pulling off.  Distances must be equal, and so must parents wherever a
/// single neighbour attains the vertex's distance.  Returns the pulled
/// run's stats.
core::SsspStats expect_forced_pull_matches_push(
    simmpi::Comm& comm, const DistGraph& g, VertexId root,
    core::SsspConfig config, const core::RunControl& control = {}) {
  const auto solve = [&](core::SsspStats* stats) {
    return core::delta_stepping(comm, g, root, config, stats, control);
  };
  config.direction_opt = true;
  config.pull_threshold = 0.0;
  config.pull_bias = 0.0;
  core::SsspStats pull_stats;
  const core::SsspResult pulled = solve(&pull_stats);
  config.direction_opt = false;
  const core::SsspResult pushed = solve(nullptr);

  EXPECT_GT(pull_stats.pull_rounds, 0u);
  EXPECT_EQ(comm.allreduce_sum(pull_stats.relax_sent), 0u);
  EXPECT_EQ(pulled.dist, pushed.dist);
  const auto whole = core::gather_result(comm, g, pushed);
  std::uint64_t compared = 0;
  for (LocalId v = 0; v < g.csr.num_local(); ++v) {
    int attaining = 0;
    for (auto e = g.csr.edges_begin(v); e < g.csr.edges_end(v); ++e) {
      if (whole.dist[g.csr.dst(e)] + g.csr.weight(e) == pushed.dist[v]) {
        ++attaining;
      }
    }
    if (pushed.dist[v] == kInfDistance || pushed.dist[v] == 0.0f ||
        attaining == 1) {
      EXPECT_EQ(pulled.parent[v], pushed.parent[v])
          << "vertex " << g.part.begin(comm.rank()) + v;
      ++compared;
    }
  }
  EXPECT_GT(comm.allreduce_sum(compared), 0u);
  return pull_stats;
}

/// The median finite distance of a solve, identical on every rank.
Weight median_reached_distance(simmpi::Comm& comm, const DistGraph& g,
                               const core::SsspResult& mine) {
  std::vector<Weight> reached;
  for (const Weight d : core::gather_result(comm, g, mine).dist) {
    if (d != kInfDistance) reached.push_back(d);
  }
  std::sort(reached.begin(), reached.end());
  return reached[reached.size() / 2];
}

TEST(DeltaStepping, ForcedPullMatchesPushOnly) {
  KroneckerParams params;
  params.scale = 10;
  for (const int ranks : {1, 3, 4}) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      for (const VertexId root : {VertexId{1}, VertexId{517}}) {
        expect_forced_pull_matches_push(comm, g, root, core::SsspConfig{});
      }
      expect_forced_pull_matches_push(comm, g, 1, core::SsspConfig::plain());
    });
  }
}

TEST(DeltaStepping, ForcedPullMatchesPushOnAMappedShard) {
  KroneckerParams params;
  params.scale = 10;
  const std::string dir = ::testing::TempDir() + "/g500_pull_mapped";
  std::filesystem::create_directories(dir);
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    write_shard(shard_path(dir, comm.rank(), comm.size()),
                build_kronecker(comm, params), comm.rank());
    comm.barrier();
    const DistGraph g = load_sharded(comm, dir);
    ASSERT_EQ(g.backing, GraphBacking::kMapped);
    expect_forced_pull_matches_push(comm, g, 1, core::SsspConfig{});
  });
  std::filesystem::remove_all(dir);
}

TEST(DeltaStepping, ForcedPullMatchesPushUnderPruning) {
  // A zero lower bound with a finite budget: neither direction may expand
  // or apply past the budget, and both must leave the same labels.
  KroneckerParams params;
  params.scale = 10;
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const auto full = core::delta_stepping(comm, g, 1);
    const std::vector<Weight> lb(g.csr.num_local(), 0.0f);
    core::RunControl control;
    control.prune_lb = &lb;
    control.prune_budget = median_reached_distance(comm, g, full);
    core::SsspStats stats;
    const auto pruned = core::delta_stepping(comm, g, 1, {}, &stats, control);
    EXPECT_GT(comm.allreduce_sum(stats.pruned_expand + stats.pruned_apply),
              0u);
    EXPECT_NE(pruned.dist, full.dist);
    expect_forced_pull_matches_push(comm, g, 1, core::SsspConfig{}, control);
  });
}

TEST(DeltaStepping, ForcedPullMatchesPushThroughRepair) {
  // Warm start from the exact labels within half the reach, every one of
  // them seeded: the repair must rebuild the rest identically either way,
  // and the unreached-edge counts must start from the warm labels.
  KroneckerParams params;
  params.scale = 10;
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const auto full = core::delta_stepping(comm, g, 1);
    const float keep = median_reached_distance(comm, g, full);
    core::WarmStart warm;
    warm.dist = full.dist;
    warm.parent = full.parent;
    for (LocalId v = 0; v < g.csr.num_local(); ++v) {
      if (warm.dist[v] > keep) {
        warm.dist[v] = kInfDistance;
        warm.parent[v] = kNoVertex;
      } else {
        warm.seeds.push_back(v);
      }
    }
    core::RunControl repair;
    repair.warm = &warm;
    expect_forced_pull_matches_push(comm, g, 1, core::SsspConfig{}, repair);
    core::SsspConfig pull;
    pull.pull_threshold = 0.0;
    pull.pull_bias = 0.0;
    EXPECT_EQ(core::delta_stepping(comm, g, 1, pull, nullptr, repair).dist,
              full.dist);
  });
}

TEST(DeltaStepping, ForcedPullMatchesPushAfterARestore) {
  // The pull row lists are built before a restore replaces the distances,
  // so they start with vertices the snapshot already settled.  The first
  // pulls must drop those and still reach every vertex the push-only run
  // reaches.
  KroneckerParams params;
  params.scale = 10;
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspConfig config;
    config.delta = 0.02;
    core::CheckpointState slot;
    core::RunControl control;
    control.checkpoint = &slot;
    control.checkpoint_interval = 1;
    core::SsspConfig truncated = config;
    truncated.max_buckets = 8;
    EXPECT_THROW(
        (void)core::delta_stepping(comm, g, 1, truncated, nullptr, control),
        std::runtime_error);
    ASSERT_TRUE(slot.valid);
    const core::SsspStats pulled =
        expect_forced_pull_matches_push(comm, g, 1, config, control);
    EXPECT_EQ(pulled.restores, 1u);
    EXPECT_EQ(pulled.pull_rounds + pulled.push_rounds,
              pulled.light_iterations + pulled.heavy_phases);
  });
}

TEST(DeltaStepping, PullBreaksTiesTowardTheSmallerSource) {
  // Vertex 3 is reached at 0.75 from both 1 (0.25 + 0.5) and 2 (0.5 +
  // 0.25).  Its row is weight-sorted, so 2's edge comes first; the pull
  // must still pick 1, as the ascending-source order of coalescing does.
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {{0, 1, 0.25f}, {0, 2, 0.5f}, {1, 3, 0.5f}, {2, 3, 0.25f}};
  for (const int ranks : {1, 2}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_distributed(
          comm, slice_for_rank(list, comm.rank(), comm.size()),
          list.num_vertices);
      core::SsspConfig c;
      c.delta = 1.0;
      c.pull_threshold = 0.0;
      c.pull_bias = 0.0;
      core::SsspStats stats;
      const auto mine = core::delta_stepping(comm, g, 0, c, &stats);
      EXPECT_EQ(stats.pull_rounds, stats.light_iterations);
      const auto whole = core::gather_result(comm, g, mine);
      EXPECT_EQ(whole.dist[3], 0.75f);
      EXPECT_EQ(whole.parent[3], 1u) << ranks << " ranks";
    });
  }
}

TEST(DeltaStepping, PullScansOnlyEdgesThatCanWin) {
  // The same square with delta 0.3: the 0.25 edges are light, the 0.5
  // edges heavy, and every round pulls.  Walking the rounds by hand, the
  // scans read 3 + 2 edges in bucket 0's light rounds (the unreached rows'
  // light parts), 2 in its heavy phase (rows 2 and 3), then 1 in bucket
  // 1 (row 3's light edge, which ties) and none after: every other scan
  // stops at its first edge.  With a lower bound of 1 at vertex 3 and a
  // budget of 0.6, the pruning test rejects every candidate of vertex 3,
  // so its scans stop at once: 2 + 1 + 1 edges in bucket 0, none after.
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {{0, 1, 0.25f}, {0, 2, 0.5f}, {1, 3, 0.5f}, {2, 3, 0.25f}};
  for (const bool prune : {false, true}) {
    for (const int ranks : {1, 2}) {
      SCOPED_TRACE(std::to_string(ranks) +
                   (prune ? " ranks, pruned" : " ranks"));
      simmpi::World world(ranks);
      world.run([&](simmpi::Comm& comm) {
        const DistGraph g = build_distributed(
            comm, slice_for_rank(list, comm.rank(), comm.size()),
            list.num_vertices);
        std::vector<Weight> lb;
        for (LocalId v = 0; v < g.csr.num_local(); ++v) {
          lb.push_back(g.part.begin(comm.rank()) + v == 3 ? 1.0f : 0.0f);
        }
        core::SsspConfig c;
        c.delta = 0.3;
        c.pull_threshold = 0.0;
        c.pull_bias = 0.0;
        core::RunControl control;
        if (prune) {
          control.prune_lb = &lb;
          control.prune_budget = 0.6f;
        }
        core::SsspStats stats;
        const auto mine =
            core::delta_stepping(comm, g, 0, c, &stats, control);
        EXPECT_EQ(stats.pull_rounds, prune ? 5u : 7u);
        EXPECT_EQ(stats.push_rounds, 0u);
        EXPECT_EQ(comm.allreduce_sum(stats.relax_generated), prune ? 4u : 8u);
        const auto whole = core::gather_result(comm, g, mine);
        EXPECT_EQ(whole.dist, (std::vector<float>{0.0f, 0.25f, 0.5f,
                                                  prune ? kInfDistance
                                                        : 0.75f}));
        EXPECT_EQ(whole.parent,
                  (std::vector<VertexId>{0, 0, 0, prune ? kNoVertex : 1}));
      });
    }
  }
}

TEST(DeltaStepping, PullRejectsAnOutOfRangeRowTarget) {
  // A mapped shard is not checked per edge.  Vertex 1's row names vertex
  // 9 of 4; the owner scan reads that row in the first pulled round and
  // must throw as the push path's owner() would, not read past its
  // frontier table.
  const std::string dir = ::testing::TempDir() + "/g500_pull_bad_target";
  std::filesystem::create_directories(dir);
  {
    ShardWriter::Meta meta;
    meta.num_vertices = 4;
    meta.num_local = 4;
    meta.num_input_edges = 2;
    meta.num_edges = 2;
    ShardWriter writer(shard_path(dir, 0, 1), meta);
    const std::vector<std::uint64_t> offsets{0, 1, 2, 2, 2};
    const std::vector<VertexId> dst{1, 9};
    const std::vector<Weight> w{0.5f, 0.5f};
    writer.append_offsets(offsets);
    writer.append_dst(dst);
    writer.append_w(w);
    writer.finish();
  }
  simmpi::World world(1);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph g = load_sharded(comm, dir);
                 core::SsspConfig c;
                 c.delta = 1.0;
                 c.pull_threshold = 0.0;
                 c.pull_bias = 0.0;
                 (void)core::delta_stepping(comm, g, 0, c);
               }),
               std::out_of_range);
  std::filesystem::remove_all(dir);
}

TEST(DeltaStepping, HeavyCandidateRoundingIntoItsBucketIsExpanded) {
  // At delta 0.7 the weight 0.7f is heavy (0.7f >= float(0.7)), yet
  // bucket_of(0.7f) divides in double and gives bucket 0.  So bucket 0's
  // heavy phase queues vertex 1 into bucket 0 itself, and the scan must
  // come back to it or vertex 2 is never reached.
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1, 0.7f}, {1, 2, 0.7f}};
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_distributed(
          comm, slice_for_rank(list, comm.rank(), comm.size()),
          list.num_vertices);
      core::SsspConfig config;
      config.delta = 0.7;
      core::SsspConfig pull = config;
      pull.pull_threshold = 0.0;
      pull.pull_bias = 0.0;
      for (const auto& c : {config, pull}) {
        const auto mine = core::delta_stepping(comm, g, 0, c);
        const auto whole = core::gather_result(comm, g, mine);
        EXPECT_EQ(whole.dist[2], 0.7f + 0.7f);
        EXPECT_EQ(whole.parent[2], 1u);
        EXPECT_TRUE(core::validate_sssp(comm, g, 0, mine).ok);
      }
      // Bucket 0 runs twice, so a run stopped after its first pass must
      // leave no snapshot: one naming bucket 0 would resume past vertex 1,
      // and the second truncated run would restore it and finish without
      // reaching vertex 2.  Stopped after the second pass, the snapshot
      // names bucket 0 and resumes correctly.
      core::CheckpointState slot;
      core::RunControl control;
      control.checkpoint = &slot;
      control.checkpoint_interval = 1;
      for (const std::uint64_t max_buckets : {1, 2}) {
        core::SsspConfig truncated = config;
        truncated.max_buckets = max_buckets;
        EXPECT_THROW((void)core::delta_stepping(comm, g, 0, truncated,
                                                nullptr, control),
                     std::runtime_error);
      }
      ASSERT_TRUE(slot.valid);
      EXPECT_EQ(slot.last_bucket, 0u);
      EXPECT_EQ(slot.buckets_done, 2u);
      core::SsspStats stats;
      const auto resumed =
          core::delta_stepping(comm, g, 0, config, &stats, control);
      EXPECT_EQ(stats.restores, 1u);
      EXPECT_EQ(core::gather_result(comm, g, resumed).dist[2], 0.7f + 0.7f);
    });
  }
}

TEST(DeltaStepping, HubSyncsRunOnlyWhenAMirrorMoved) {
  // A tighten runs only after a bucket in which some rank lowered a mirror
  // entry or an owned hub's distance fell below its entry.  On a star the
  // centre settles early; on a Kronecker graph most buckets leave every
  // hub alone.  Skipping the other tightens changes no distance.  A run
  // that pulls every round routes nothing, so only the owners' hub
  // distances can make it stale, and they still must.
  KroneckerParams params;
  params.scale = 10;
  const EdgeList star = star_graph(256, 33);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.hub_count = 4;
    const DistGraph star_g = build_distributed(
        comm, slice_for_rank(star, comm.rank(), comm.size()),
        star.num_vertices, opts);
    const DistGraph kron_g = build_kronecker(comm, params);
    core::SsspConfig on;
    on.delta = 0.05;
    core::SsspConfig off = on;
    off.hub_cache = false;
    for (const auto& [g, root] : {std::pair{&star_g, VertexId{5}},
                                  std::pair{&kron_g, VertexId{1}}}) {
      core::SsspStats stats;
      const auto cached = core::delta_stepping(comm, *g, root, on, &stats);
      EXPECT_GE(stats.hub_syncs, 1u);
      EXPECT_LT(stats.hub_syncs, stats.buckets_processed);
      EXPECT_EQ(cached.dist, core::delta_stepping(comm, *g, root, off).dist);
      EXPECT_TRUE(core::validate_sssp(comm, *g, root, cached).ok);
      core::SsspStats uncached;
      (void)core::delta_stepping(comm, *g, root, off, &uncached);
      EXPECT_EQ(uncached.hub_syncs, 0u);
    }
    core::SsspConfig pull = on;
    pull.pull_threshold = 0.0;
    pull.pull_bias = 0.0;
    core::SsspStats pulled;
    (void)core::delta_stepping(comm, kron_g, 1, pull, &pulled);
    EXPECT_EQ(comm.allreduce_sum(pulled.relax_sent), 0u);
    EXPECT_GE(pulled.hub_syncs, 1u);
  });
}

TEST(DeltaStepping, StaleWordRidesTheLightAllreduceOnlyWithTheHubCache) {
  // With the hub cache on, every light allreduce carries 8 bytes more: the
  // count of ranks whose mirror contribution moved.  A tighten, one float
  // per hub, runs only after a drained round where that count is
  // non-zero; hub_syncs counts them.
  KroneckerParams params;
  params.scale = 10;
  for (const bool hub_cache : {false, true}) {
    for (const bool direction_opt : {false, true}) {
      SCOPED_TRACE(std::string(hub_cache ? "hub cache" : "no hub cache") +
                   (direction_opt ? ", direction_opt" : ""));
      simmpi::World world(3);
      world.run([&](simmpi::Comm& comm) {
        const DistGraph g = build_kronecker(comm, params);
        ASSERT_FALSE(g.hubs.empty());
        core::SsspConfig config = core::SsspConfig::plain();
        config.hub_cache = hub_cache;
        config.direction_opt = direction_opt;
        core::SsspStats stats;
        const std::uint64_t before = comm.stats().allreduce.bytes;
        (void)core::delta_stepping(comm, g, 1, config, &stats);
        const std::uint64_t bytes = comm.stats().allreduce.bytes - before;
        const std::uint64_t light_bytes =
            (direction_opt ? 48u : 16u) + (hub_cache ? 8u : 0u);
        EXPECT_EQ(bytes, 8 * (stats.buckets_processed + 1) +
                             light_bytes * (stats.light_iterations +
                                            stats.buckets_processed) +
                             sizeof(Weight) * g.hubs.size() * stats.hub_syncs);
        EXPECT_EQ(stats.hub_syncs > 0, hub_cache);
      });
    }
  }
}

// --------------------------------------------------------------------------
// The split memo: the solves on one graph at one delta share its DeltaSplit.
// --------------------------------------------------------------------------

TEST(DeltaSplitMemo, SecondSolveReusesTheSplitAndANewDeltaDerivesOne) {
  KroneckerParams params;
  params.scale = 10;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const auto auto_width = static_cast<Weight>(core::auto_delta(g));
    ASSERT_NE(auto_width, 0.1f);
    core::SsspConfig tenth;
    tenth.delta = 0.1;
    (void)core::delta_stepping(comm, g, 1);
    const auto first = g.csr.delta_split(auto_width);
    (void)core::delta_stepping(comm, g, 517);
    EXPECT_EQ(g.csr.delta_split(auto_width), first);
    (void)core::delta_stepping(comm, g, 1, tenth);
    const auto second = g.csr.delta_split(0.1f);
    EXPECT_NE(second, first);
    (void)core::delta_stepping(comm, g, 517, tenth);
    EXPECT_EQ(g.csr.delta_split(0.1f), second);
    // Held, the first split is still alive, so a split derived anew for
    // the automatic delta has another address.
    (void)core::delta_stepping(comm, g, 1);
    EXPECT_NE(g.csr.delta_split(auto_width), first);
  });
}

/// Solve on `g`, whose split earlier solves may have derived, and on a
/// graph `build` makes just now: labels must agree bit for bit.  `solve`
/// may run several engine calls (a truncated run, then its resume).
void expect_same_as_fresh_build(
    const DistGraph& g, const std::function<DistGraph()>& build,
    const std::function<core::SsspResult(const DistGraph&)>& solve,
    const std::string& where) {
  const DistGraph fresh = build();
  const core::SsspResult want = solve(fresh);
  const core::SsspResult got = solve(g);
  EXPECT_EQ(got.dist, want.dist) << where;
  EXPECT_EQ(got.parent, want.parent) << where;
}

TEST(DeltaSplitMemo, SolvesMatchAFreshBuildWhereverTheSplitCameFrom) {
  KroneckerParams params;
  params.scale = 9;
  const EdgeList list = kronecker_graph(params);
  core::SsspConfig tenth;
  tenth.delta = 0.1;
  const std::vector<std::pair<std::string, core::SsspConfig>> configs = {
      {"delta 0.1", tenth}, {"auto", {}}, {"delta 0.1 again", tenth},
      {"auto again", {}}};
  const std::string dir = ::testing::TempDir() + "/g500_split_memo";
  for (int ranks = 1; ranks <= 5; ++ranks) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    std::filesystem::create_directories(dir);
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const auto build = [&] {
        return build_distributed(
            comm, slice_for_rank(list, comm.rank(), comm.size()),
            list.num_vertices);
      };
      const DistGraph g = build();
      const auto roots = core::sample_roots(comm, g, 2, 7);
      const auto check = [&](const DistGraph& on, const std::string& where) {
        for (const auto& [name, config] : configs) {
          for (const VertexId root : roots) {
            expect_same_as_fresh_build(
                on, build,
                [&](const DistGraph& graph) {
                  return core::delta_stepping(comm, graph, root, config);
                },
                where + ", " + name + ", root " + std::to_string(root));
          }
        }
      };
      // One graph across explicit and automatic deltas, then its copy.
      check(g, "alternation");
      const DistGraph copy = g;
      check(copy, "copy");

      // Mapped shard views start without a split and derive one.
      write_shard(shard_path(dir, comm.rank(), comm.size()), g, comm.rank());
      comm.barrier();
      check(load_sharded(comm, dir), "shards");

      // A warm-start repair and a checkpoint restore recount the unreached
      // edges from the labels they adopt.
      for (const auto& [name, config] : configs) {
        const VertexId root = roots.front();
        const auto full = core::delta_stepping(comm, g, root, config);
        core::WarmStart warm;
        warm.dist = full.dist;
        warm.parent = full.parent;
        for (LocalId v = 0; v < g.csr.num_local(); ++v) {
          if ((g.part.begin(comm.rank()) + v) % 3 == 0 && full.dist[v] != 0) {
            warm.dist[v] = kInfDistance;
            warm.parent[v] = kNoVertex;
          } else if (warm.dist[v] != kInfDistance) {
            warm.seeds.push_back(v);
          }
        }
        core::RunControl repair;
        repair.warm = &warm;
        expect_same_as_fresh_build(
            g, build,
            [&](const DistGraph& graph) {
              return core::delta_stepping(comm, graph, root, config, nullptr,
                                          repair);
            },
            "repair, " + name);
        expect_same_as_fresh_build(
            g, build,
            [&](const DistGraph& graph) {
              core::CheckpointState slot;
              core::RunControl control;
              control.checkpoint = &slot;
              control.checkpoint_interval = 1;
              core::SsspConfig truncated = config;
              truncated.max_buckets = 3;
              EXPECT_THROW((void)core::delta_stepping(comm, graph, root,
                                                      truncated, nullptr,
                                                      control),
                           std::runtime_error);
              EXPECT_TRUE(slot.valid);
              core::SsspStats stats;
              auto resumed = core::delta_stepping(comm, graph, root, config,
                                                  &stats, control);
              EXPECT_EQ(stats.restores, 1u);
              return resumed;
            },
            "restore, " + name);
      }
    });
    std::filesystem::remove_all(dir);
  }
}

TEST(DeltaSplitMemo, CommittedGraphMatchesAFreshBuild) {
  // Solves derive splits on the view, the last at delta 0.1; then a batch
  // inserts light edges, reweights some to light and deletes others.  The
  // commit splices a new CSR, and the solves on it, first at delta 0.1
  // (the automatic delta moves with the edge count), must see its own
  // split.
  KroneckerParams params;
  params.scale = 9;
  const EdgeList list = kronecker_graph(params);
  core::SsspConfig tenth;
  tenth.delta = 0.1;
  for (int ranks = 1; ranks <= 5; ++ranks) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      dyn::MutableGraph mg(
          comm, build_distributed(
                    comm, slice_for_rank(list, comm.rank(), comm.size()),
                    list.num_vertices));
      g500::test::RefGraph ref(list);
      util::SplitMix64 rng(0xC0FFEE);
      for (int commit = 0; commit < 2; ++commit) {
        const auto roots = core::sample_roots(comm, mg.view(), 2, 11);
        for (const auto& config : {core::SsspConfig{}, tenth}) {
          (void)core::delta_stepping(comm, mg.view(), roots.front(), config);
        }
        std::vector<dyn::EdgeUpdate> batch;
        for (int i = 0; i < 24; ++i) {
          const VertexId u = rng.next_below(list.num_vertices);
          const VertexId v = rng.next_below(list.num_vertices);
          const auto op = static_cast<dyn::UpdateOp>(rng.next_below(3));
          batch.push_back({u, v, 0.01f * static_cast<Weight>(i % 5), op});
        }
        for (int i = 0; i < 24; ++i) {  // existing edges, made light or gone
          const Edge& e = list.edges[rng.next_below(list.edges.size())];
          batch.push_back({e.src, e.dst, 0.02f,
                           i % 2 == 0 ? dyn::UpdateOp::kSet
                                      : dyn::UpdateOp::kDelete});
        }
        (void)g500::test::commit_spread(comm, mg, ref, batch);
        mg.compact();  // hubs as a fresh build selects them
        const auto build = [&] {
          return build_distributed(
              comm,
              slice_for_rank(ref.edge_list(list.num_vertices), comm.rank(),
                             comm.size()),
              list.num_vertices);
        };
        for (const auto& config : {tenth, core::SsspConfig{}}) {
          for (const VertexId root : roots) {
            expect_same_as_fresh_build(
                mg.view(), build,
                [&](const DistGraph& graph) {
                  return core::delta_stepping(comm, graph, root, config);
                },
                "commit " + std::to_string(commit) + ", root " +
                    std::to_string(root));
          }
        }
      }
    });
  }
}

}  // namespace
