// MutableGraph semantics: staged batches against a host-side reference
// edge map applying the documented merge rules, version agreement,
// self-loop/duplicate handling, compaction equivalence, and the one-copy
// invariant (a committed view equals a fresh build of its edges).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "dyn/mutable_graph.hpp"
#include "dyn_reference.hpp"
#include "graph/builder.hpp"
#include "graph/shard.hpp"
#include "simmpi/comm.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using namespace g500::graph;
using dyn::EdgeUpdate;
using dyn::MutableGraph;
using dyn::UpdateOp;
using test::commit_spread;
using test::EdgeTuple;
using test::expect_fresh_build;
using test::gather_view_edges;
using test::RefGraph;

/// Deterministic test graph: a ring plus chords, with self-loops and
/// duplicates the builder must clean.
EdgeList test_graph(VertexId n) {
  EdgeList input;
  input.num_vertices = n;
  util::SplitMix64 rng(0xD11A);
  for (VertexId v = 0; v < n; ++v) {
    input.edges.push_back(
        Edge{v, (v + 1) % n, static_cast<Weight>(rng.next_double())});
  }
  for (int i = 0; i < 24; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    input.edges.push_back(Edge{u, v, static_cast<Weight>(rng.next_double())});
  }
  input.edges.push_back(Edge{3, 3, 0.5f});     // self-loop
  input.edges.push_back(input.edges.front());  // duplicate
  return input;
}

/// Random batch mixing inserts, deletes, weight sets, duplicates and
/// self-loops; identical on every rank for a fixed (seed, existing set).
std::vector<EdgeUpdate> random_batch(std::uint64_t seed, VertexId n,
                                     const std::vector<EdgeTuple>& existing) {
  util::SplitMix64 rng(seed);
  std::vector<EdgeUpdate> batch;
  const int count = 6 + static_cast<int>(rng.next_below(6));
  for (int i = 0; i < count; ++i) {
    const auto roll = rng.next_below(10);
    if (roll < 4 || existing.empty()) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));  // may self-loop
      batch.push_back(EdgeUpdate{u, v, static_cast<Weight>(rng.next_double()),
                                 UpdateOp::kInsert});
    } else {
      const auto& [u, v, w] = existing[rng.next_below(existing.size())];
      if (roll < 7) {
        batch.push_back(EdgeUpdate{u, v, 0.0f, UpdateOp::kDelete});
      } else {
        batch.push_back(EdgeUpdate{
            u, v, static_cast<Weight>(rng.next_double() * 2), UpdateOp::kSet});
      }
    }
  }
  if (!batch.empty()) batch.push_back(batch.front());  // duplicate op
  return batch;
}

TEST(MutableGraph, CommittedViewMatchesReferenceAcrossRanks) {
  const auto input = test_graph(64);
  for (const int P : {1, 2, 3, 5}) {
    simmpi::World world(P);
    world.run([&](simmpi::Comm& comm) {
      MutableGraph mg(comm, build_distributed(
                                comm, slice_for_rank(input, comm.rank(), P),
                                input.num_vertices));
      RefGraph ref(input);
      ASSERT_EQ(gather_view_edges(comm, mg.view()), ref.directed())
          << "adopted base diverges, P=" << P;

      // Spread the staging over the ranks (the committed outcome must not
      // depend on who staged what), commit, and hold the view to the
      // reference and to a fresh build of the reference edges.
      std::uint64_t version = 0;
      const auto commit = [&](const std::vector<EdgeUpdate>& batch,
                              const std::string& what) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (static_cast<int>(i % static_cast<std::size_t>(P)) ==
              comm.rank()) {
            mg.stage(batch[i]);
          }
        }
        const auto summary = mg.commit_batch();
        ref.apply(batch);
        const std::string where = "P=" + std::to_string(P) + " rank=" +
                                  std::to_string(comm.rank()) + " " + what;
        EXPECT_EQ(summary.graph_version, ++version) << where;
        ASSERT_EQ(gather_view_edges(comm, mg.view()), ref.directed())
            << "view diverges from reference, " << where;
        EXPECT_EQ(mg.view().num_directed_edges, 2 * ref.num_edges());
        expect_fresh_build(comm, mg.view(), ref, /*with_hubs=*/false, where);
      };

      for (int round = 0; round < 8; ++round) {
        const auto existing = gather_view_edges(comm, mg.view());
        commit(random_batch(0xBEE5 + round, 64, existing),
               "round " + std::to_string(round));
      }

      // Delete, lower and raise the edges of the top hub's row.
      const VertexId hub = mg.view().hubs[0];
      std::vector<EdgeUpdate> hub_batch;
      for (const auto& [u, v, w] : gather_view_edges(comm, mg.view())) {
        if (u != hub) continue;
        switch (hub_batch.size() % 3) {
          case 0:
            hub_batch.push_back(EdgeUpdate{u, v, 0.0f, UpdateOp::kDelete});
            break;
          case 1:
            hub_batch.push_back(EdgeUpdate{u, v, w / 2, UpdateOp::kSet});
            break;
          default:
            hub_batch.push_back(EdgeUpdate{u, v, w + 1, UpdateOp::kSet});
            break;
        }
      }
      ASSERT_GE(hub_batch.size(), 3u);
      commit(hub_batch, "hub row");

      // Delete every edge of one vertex, leaving its row empty.
      const auto existing = gather_view_edges(comm, mg.view());
      const VertexId lone = std::get<0>(existing.back());
      std::vector<EdgeUpdate> lone_batch;
      for (const auto& [u, v, w] : existing) {
        if (u == lone) {
          lone_batch.push_back(EdgeUpdate{u, v, 0.0f, UpdateOp::kDelete});
        }
      }
      commit(lone_batch, "emptied row");
      if (mg.view().rank_of(lone) == comm.rank()) {
        const auto local = static_cast<LocalId>(
            lone - mg.view().part.begin(comm.rank()));
        EXPECT_EQ(mg.view().csr.degree(local), 0u);
      }

      // Compaction re-selects hubs; then the view equals the fresh build
      // in every field.
      mg.compact();
      expect_fresh_build(comm, mg.view(), ref, /*with_hubs=*/true,
                         "P=" + std::to_string(P) + " after compact()");
    });
  }
}

TEST(MutableGraph, InsertKeepsMinimumAndSetOverwrites) {
  const auto input = test_graph(32);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    MutableGraph mg(comm, build_distributed(
                              comm, slice_for_rank(input, comm.rank(), 2),
                              input.num_vertices));
    // A fresh edge inserted on both ranks at different weights: min wins.
    if (comm.rank() == 0) mg.stage_insert(10, 20, 0.75f);
    if (comm.rank() == 1) mg.stage_insert(20, 10, 0.25f);
    auto summary = mg.commit_batch();
    EXPECT_EQ(summary.inserted, 1u);
    ASSERT_EQ(summary.applied.size(), 1u);
    EXPECT_EQ(summary.applied[0].new_weight, 0.25f);
    EXPECT_EQ(summary.applied[0].had_old, 0);

    // Inserting over an existing edge min-merges; kSet overwrites even
    // upward (the only way to increase a weight).
    if (comm.rank() == 0) mg.stage_insert(10, 20, 0.9f);
    summary = mg.commit_batch();
    EXPECT_TRUE(summary.applied.empty()) << "insert above current is a no-op";
    if (comm.rank() == 1) mg.stage_set(10, 20, 0.9f);
    summary = mg.commit_batch();
    ASSERT_EQ(summary.applied.size(), 1u);
    EXPECT_EQ(summary.reweighted, 1u);
    EXPECT_EQ(summary.applied[0].old_weight, 0.25f);
    EXPECT_EQ(summary.applied[0].new_weight, 0.9f);
    // The increased copies surface as suspects on the owning ranks.
    const auto suspect_total = comm.allreduce_sum(
        static_cast<std::uint64_t>(summary.suspects.size()));
    EXPECT_EQ(suspect_total, 2u);

    // Deleting removes both directions and reports once.
    if (comm.rank() == 0) mg.stage_delete(20, 10);
    summary = mg.commit_batch();
    EXPECT_EQ(summary.removed, 1u);
    ASSERT_EQ(summary.applied.size(), 1u);
    EXPECT_EQ(summary.applied[0].removed, 1);
    // Deleting a missing edge is a no-op, but the version still advances.
    const auto version_before = mg.version();
    if (comm.rank() == 0) mg.stage_delete(20, 10);
    summary = mg.commit_batch();
    EXPECT_TRUE(summary.applied.empty());
    EXPECT_EQ(summary.graph_version, version_before + 1);
  });
}

TEST(MutableGraph, SelfLoopsDroppedAndRangeChecked) {
  const auto input = test_graph(16);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    MutableGraph mg(comm, build_distributed(
                              comm, slice_for_rank(input, comm.rank(), 2),
                              input.num_vertices));
    EXPECT_THROW(mg.stage_insert(3, 16, 0.5f), std::out_of_range);
    if (comm.rank() == 0) mg.stage_insert(5, 5, 0.5f);
    const auto summary = mg.commit_batch();
    EXPECT_EQ(summary.self_loops_dropped, 1u);
    EXPECT_TRUE(summary.applied.empty());
  });
}

TEST(MutableGraph, StageRejectsUnusableWeights) {
  const auto input = test_graph(16);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    MutableGraph mg(comm, build_distributed(
                              comm, slice_for_rank(input, comm.rank(), 2),
                              input.num_vertices));
    for (const Weight bad : {std::numeric_limits<Weight>::quiet_NaN(),
                             std::numeric_limits<Weight>::infinity(),
                             -std::numeric_limits<Weight>::infinity(),
                             -0.5f}) {
      EXPECT_THROW(mg.stage_insert(3, 4, bad), std::invalid_argument) << bad;
      EXPECT_THROW(mg.stage_set(3, 4, bad), std::invalid_argument) << bad;
    }
    EXPECT_EQ(mg.pending(), 0u);
    // A zero weight is usable, and a delete carries no weight.
    mg.stage_insert(3, 4, 0.0f);
    mg.stage_delete(5, 6);
    EXPECT_EQ(mg.pending(), 2u);
    (void)mg.commit_batch();
  });
}

TEST(MutableGraph, CompactionPreservesEdgesAndRefreshesHubs) {
  const auto input = test_graph(64);
  for (const int P : {1, 3}) {
    simmpi::World world(P);
    world.run([&](simmpi::Comm& comm) {
      MutableGraph::Config cfg;
      cfg.compact_every = 2;
      MutableGraph mg(comm,
                      build_distributed(
                          comm, slice_for_rank(input, comm.rank(), P),
                          input.num_vertices),
                      cfg);
      RefGraph ref(input);
      std::uint64_t version = 0;
      for (int round = 0; round < 4; ++round) {
        const auto existing = gather_view_edges(comm, mg.view());
        const auto batch = random_batch(0xC0DE + round, 64, existing);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (static_cast<int>(i % static_cast<std::size_t>(P)) ==
              comm.rank()) {
            mg.stage(batch[i]);
          }
        }
        const auto summary = mg.commit_batch();
        ref.apply(batch);
        version = summary.graph_version;
        EXPECT_EQ(summary.compacted, round % 2 == 1);
        ASSERT_EQ(gather_view_edges(comm, mg.view()), ref.directed())
            << "P=" << P << " round=" << round
            << (summary.compacted ? " (compacted)" : "");
      }
      EXPECT_EQ(mg.stats().compactions, 2u);
      EXPECT_EQ(mg.version(), version);
      EXPECT_FALSE(mg.view().hubs.empty());
    });
  }
}

TEST(MutableGraph, CommitOverMappedShardsIsResident) {
  const auto input = test_graph(64);
  const std::string dir = ::testing::TempDir() + "/g500_dyn_mapped";
  std::filesystem::create_directories(dir);
  const int ranks = 2;
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    write_shard(shard_path(dir, comm.rank(), ranks),
                build_distributed(comm,
                                  slice_for_rank(input, comm.rank(), ranks),
                                  input.num_vertices),
                comm.rank());
    MutableGraph mg(comm, load_sharded(comm, dir));
    // Adoption keeps the mapped arrays; nothing is copied to the heap.
    EXPECT_EQ(mg.view().backing, GraphBacking::kMapped);
    EXPECT_FALSE(mg.view().csr.owns_storage());
    EXPECT_GT(mg.view().mapped_bytes, 0u);

    RefGraph ref(input);
    if (comm.rank() == 0) mg.stage_insert(5, 40, 0.25f);
    const auto summary = mg.commit_batch();
    ref.apply({EdgeUpdate{5, 40, 0.25f, UpdateOp::kInsert}});
    EXPECT_EQ(summary.inserted, 1u) << "5-40 must be a new edge";

    // The committed arrays live on the heap, so the view must say so and
    // let go of the shard mapping.
    EXPECT_TRUE(mg.view().csr.owns_storage());
    EXPECT_EQ(mg.view().backing, GraphBacking::kResident);
    EXPECT_EQ(mg.view().mapping, nullptr);
    EXPECT_EQ(mg.view().mapped_bytes, 0u);
    EXPECT_EQ(gather_view_edges(comm, mg.view()), ref.directed());
    expect_fresh_build(comm, mg.view(), ref, /*with_hubs=*/false,
                       "mapped base, rank " + std::to_string(comm.rank()));
  });
  std::filesystem::remove_all(dir);
}

/// This rank's piece of `input` built with `opts`, or, when `mapped`, the
/// same piece spilled to a shard in `dir` and loaded back (a shard of a
/// graph built without a pull index has no pull section).
DistGraph adopted_base(simmpi::Comm& comm, const EdgeList& input,
                       const BuildOptions& opts, bool mapped,
                       const std::string& dir) {
  DistGraph g = build_distributed(
      comm, slice_for_rank(input, comm.rank(), comm.size()),
      input.num_vertices, opts);
  if (!mapped) return g;
  write_shard(shard_path(dir, comm.rank(), comm.size()), g, comm.rank());
  return load_sharded(comm, dir);
}

// A base without a pull index gets the fresh build's index at its first
// commit: patching the empty index would leave it holding only the batch.
TEST(MutableGraph, CommitBuildsMissingPullIndex) {
  const auto input = test_graph(64);
  const std::string dir = ::testing::TempDir() + "/g500_dyn_no_pull";
  std::filesystem::create_directories(dir);
  BuildOptions no_pull;
  no_pull.build_pull_index = false;
  for (const int P : {1, 2, 3}) {
    for (const bool mapped : {false, true}) {
      simmpi::World world(P);
      world.run([&](simmpi::Comm& comm) {
        MutableGraph mg(comm, adopted_base(comm, input, no_pull, mapped, dir));
        EXPECT_EQ(mg.view().pull.num_entries(), 0u);
        RefGraph ref(input);
        for (int round = 0; round < 3; ++round) {
          commit_spread(comm, mg, ref,
                        random_batch(0xF11 + round, 64,
                                     gather_view_edges(comm, mg.view())));
          expect_fresh_build(comm, mg.view(), ref, /*with_hubs=*/false,
                             "P=" + std::to_string(P) +
                                 (mapped ? " mapped" : " in-memory") +
                                 " round " + std::to_string(round));
        }
      });
    }
  }
  std::filesystem::remove_all(dir);
}

// Under build_pull_index = false a commit leaves no pull index, whether the
// base had one or not, and the CSR still equals a fresh build.
TEST(MutableGraph, CommitDropsPullIndexWhenOptionIsOff) {
  const auto input = test_graph(64);
  const std::string dir = ::testing::TempDir() + "/g500_dyn_drop_pull";
  std::filesystem::create_directories(dir);
  MutableGraph::Config cfg;
  cfg.build.build_pull_index = false;
  for (const int P : {1, 2, 3}) {
    for (const bool mapped : {false, true}) {
      simmpi::World world(P);
      world.run([&](simmpi::Comm& comm) {
        // The in-memory base carries a pull index; the shard has none.
        MutableGraph mg(comm,
                        adopted_base(comm, input, mapped ? cfg.build
                                                         : BuildOptions{},
                                     mapped, dir),
                        cfg);
        RefGraph ref(input);
        for (int round = 0; round < 3; ++round) {
          commit_spread(comm, mg, ref,
                        random_batch(0xD20 + round, 64,
                                     gather_view_edges(comm, mg.view())));
          const std::string where = "P=" + std::to_string(P) +
                                    (mapped ? " mapped" : " in-memory") +
                                    " round " + std::to_string(round);
          const DistGraph& view = mg.view();
          EXPECT_TRUE(view.pull.sources().empty()) << where;
          EXPECT_TRUE(view.pull.offsets().empty()) << where;
          EXPECT_EQ(view.pull.num_entries(), 0u) << where;
          const DistGraph fresh = build_distributed(
              comm, slice_for_rank(ref.edge_list(64), comm.rank(), P), 64,
              cfg.build);
          const auto same = [](auto a, auto b) {
            return std::ranges::equal(a, b);
          };
          EXPECT_TRUE(same(view.csr.offsets(), fresh.csr.offsets())) << where;
          EXPECT_TRUE(same(view.csr.adjacency(), fresh.csr.adjacency()))
              << where;
          EXPECT_TRUE(same(view.csr.weights(), fresh.csr.weights())) << where;
        }
      });
    }
  }
  std::filesystem::remove_all(dir);
}

// The corners of a splice, each held to a fresh build: only the first and
// last rows of each rank touched, a pull group that appears and then
// vanishes, a batch whose every op merges to nothing, and ranks that own
// no vertex at all.
TEST(MutableGraph, SpliceEdgeCasesMatchFreshBuild) {
  // Vertices 64..79 start isolated, so an edge to one of them is the first
  // edge from it into any rank.
  EdgeList input = test_graph(64);
  input.num_vertices = 80;
  const EdgeList tiny{3, {Edge{0, 1, 0.5f}, Edge{1, 2, 0.25f}}};
  for (const int P : {1, 2, 3, 5}) {
    simmpi::World world(P);
    world.run([&](simmpi::Comm& comm) {
      const int me = comm.rank();
      MutableGraph mg(comm, build_distributed(
                                comm, slice_for_rank(input, me, P), 80));
      const BlockPartition& part = mg.view().part;
      RefGraph ref(input);
      const auto check = [&](const std::string& what) {
        expect_fresh_build(comm, mg.view(), ref, /*with_hubs=*/false,
                           "P=" + std::to_string(P) + " rank " +
                               std::to_string(me) + " " + what);
      };

      // Every pair among the ranks' first and last rows: set an existing
      // edge up or down or delete it, insert a missing one.
      std::vector<VertexId> ends;
      for (int r = 0; r < P; ++r) {
        ends.push_back(part.begin(r));
        ends.push_back(part.end(r) - 1);
      }
      std::vector<EdgeUpdate> rim;
      const auto existing = ref.directed();
      for (std::size_t i = 0; i < ends.size(); ++i) {
        for (std::size_t j = i + 1; j < ends.size(); ++j) {
          const VertexId u = ends[i], v = ends[j];
          const auto it = std::ranges::find_if(existing, [&](const auto& t) {
            return std::get<0>(t) == u && std::get<1>(t) == v;
          });
          if (it == existing.end()) {
            rim.push_back(EdgeUpdate{u, v, 0.125f, UpdateOp::kInsert});
            continue;
          }
          const Weight w = std::get<2>(*it);
          const UpdateOp op = rim.size() % 3 == 0 ? UpdateOp::kDelete
                                                  : UpdateOp::kSet;
          rim.push_back(EdgeUpdate{u, v, rim.size() % 3 == 1 ? w / 2 : w + 1,
                                   op});
        }
      }
      ASSERT_FALSE(rim.empty());
      commit_spread(comm, mg, ref, rim);
      check("first and last rows");

      // Edge 65 + r -> first row of rank r: a new pull group on rank r.
      std::vector<EdgeUpdate> link, unlink;
      for (int r = 0; r < P; ++r) {
        link.push_back(EdgeUpdate{65 + static_cast<VertexId>(r),
                                  part.begin(r), 0.75f, UpdateOp::kInsert});
        unlink.push_back(EdgeUpdate{65 + static_cast<VertexId>(r),
                                    part.begin(r), 0.0f, UpdateOp::kDelete});
      }
      const VertexId mine = 65 + static_cast<VertexId>(me);
      const auto has_group = [&] {
        return std::ranges::binary_search(mg.view().pull.sources(), mine);
      };
      EXPECT_FALSE(has_group());
      commit_spread(comm, mg, ref, link);
      EXPECT_TRUE(has_group());
      check("pull group created");
      commit_spread(comm, mg, ref, unlink);
      EXPECT_FALSE(has_group());
      check("pull group emptied");

      // A heavier insert of an existing edge, a set to its own weight, a
      // delete of a missing edge and a self-loop: the version moves, the
      // arrays do not.
      const auto copy = [](auto span) {
        return std::vector(span.begin(), span.end());
      };
      const auto offsets = copy(mg.view().csr.offsets());
      const auto adjacency = copy(mg.view().csr.adjacency());
      const auto weights = copy(mg.view().csr.weights());
      const auto pull_dst = copy(mg.view().pull.destinations());
      const auto version = mg.version();
      const auto edges = ref.directed();
      const auto [u, v, w] = edges.front();
      const auto [x, y, wxy] = edges.back();
      const auto summary = commit_spread(
          comm, mg, ref,
          {EdgeUpdate{u, v, w + 1, UpdateOp::kInsert},
           EdgeUpdate{x, y, wxy, UpdateOp::kSet},
           EdgeUpdate{65, part.begin(0), 0.0f, UpdateOp::kDelete},
           EdgeUpdate{7, 7, 0.5f, UpdateOp::kInsert}});
      EXPECT_TRUE(summary.applied.empty());
      EXPECT_EQ(summary.graph_version, version + 1);
      EXPECT_TRUE(std::ranges::equal(mg.view().csr.offsets(), offsets));
      EXPECT_TRUE(std::ranges::equal(mg.view().csr.adjacency(), adjacency));
      EXPECT_TRUE(std::ranges::equal(mg.view().csr.weights(), weights));
      EXPECT_TRUE(std::ranges::equal(mg.view().pull.destinations(), pull_dst));
      check("version-only batch");

      // Three vertices: on 5 ranks, two ranks own an empty CSR.
      MutableGraph small(comm, build_distributed(
                                   comm, slice_for_rank(tiny, me, P), 3));
      RefGraph small_ref(tiny);
      for (const auto& batch : std::vector<std::vector<EdgeUpdate>>{
               {EdgeUpdate{0, 2, 0.5f, UpdateOp::kInsert},
                EdgeUpdate{0, 1, 0.0f, UpdateOp::kDelete}},
               {EdgeUpdate{1, 2, 2.0f, UpdateOp::kSet}},
               {EdgeUpdate{2, 0, 0.0f, UpdateOp::kDelete},
                EdgeUpdate{2, 1, 0.0f, UpdateOp::kDelete}}}) {
        commit_spread(comm, small, small_ref, batch);
        expect_fresh_build(comm, small.view(), small_ref, /*with_hubs=*/false,
                           "3 vertices, P=" + std::to_string(P));
      }
      if (me >= 3) {
        EXPECT_EQ(small.view().csr.num_local(), 0u);
      }
    });
  }
}

}  // namespace
