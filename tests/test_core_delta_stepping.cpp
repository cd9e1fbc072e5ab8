// Correctness tests for the delta-stepping engine: oracle sweeps over
// graph shapes x rank counts x optimization configurations, plus targeted
// feature and edge-case tests.
#include <gtest/gtest.h>

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

TEST(DeltaStepping, RunsThatCannotPullKeepTwoSumsPerLightAllreduce) {
  // R's size and heavy-edge count join the light loop's allreduce only
  // where pulling is possible.  A run that cannot pull pays 8 bytes per
  // bucket minimum (one per bucket plus the final one) and 16 per light
  // allreduce (one per light round plus the drained one); without a pull
  // index, the 4-byte agreement at construction comes on top.
  KroneckerParams params;
  params.scale = 10;
  for (const bool index : {true, false}) {
    simmpi::World world(3);
    world.run([&](simmpi::Comm& comm) {
      BuildOptions opts;
      opts.build_pull_index = index;
      const DistGraph g = build_kronecker(comm, params, opts);
      core::SsspConfig config = core::SsspConfig::plain();
      config.direction_opt = !index;  // off, or on without a pull index
      core::SsspStats stats;
      const std::uint64_t before = comm.stats().allreduce.bytes;
      (void)core::delta_stepping(comm, g, 1, config, &stats);
      const std::uint64_t bytes = comm.stats().allreduce.bytes - before;
      EXPECT_EQ(stats.pull_rounds, 0u);
      EXPECT_EQ(bytes, (index ? 0u : 4u) + 8 * (stats.buckets_processed + 1) +
                           16 * (stats.light_iterations +
                                 stats.buckets_processed))
          << (index ? "direction_opt off" : "no pull index");
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

TEST(DeltaStepping, WithoutPullIndexDirectionOptFallsBackToPush) {
  KroneckerParams params;
  params.scale = 7;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.build_pull_index = false;
    const DistGraph g = build_kronecker(comm, params, opts);
    core::SsspConfig c;
    c.pull_threshold = 0.0;
    c.pull_bias = 0.0;
    core::SsspStats stats;
    const auto mine = core::delta_stepping(comm, g, 0, c, &stats);
    EXPECT_EQ(stats.pull_rounds, 0u);
    EXPECT_TRUE(core::validate_sssp(comm, g, 0, mine).ok);
  });
}

}  // namespace
