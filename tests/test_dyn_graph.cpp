// MutableGraph semantics: staged batches against a host-side reference
// edge map applying the documented merge rules, version agreement,
// self-loop/duplicate handling, compaction equivalence, and the one-copy
// invariant (a committed view equals a fresh build of its edges).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dyn/mutable_graph.hpp"
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

using EdgeTuple = std::tuple<VertexId, VertexId, Weight>;

/// Host-side reference: an undirected weighted edge map applying the same
/// batch-merge rule the MutableGraph documents (kDelete > kSet > kInsert,
/// min weight within the winning class; insert min-merges, set upserts).
class RefGraph {
 public:
  explicit RefGraph(const EdgeList& input) {
    for (const auto& e : input.edges) {
      if (e.src == e.dst) continue;
      const auto k = key(e.src, e.dst);
      const auto it = edges_.find(k);
      if (it == edges_.end()) {
        edges_.emplace(k, e.weight);
      } else {
        it->second = std::min(it->second, e.weight);
      }
    }
  }

  void apply(const std::vector<EdgeUpdate>& batch) {
    std::map<std::pair<VertexId, VertexId>, EdgeUpdate> merged;
    for (const auto& up : batch) {
      if (up.u == up.v) continue;
      const auto k = key(up.u, up.v);
      const auto it = merged.find(k);
      if (it == merged.end()) {
        merged.emplace(k, up);
        continue;
      }
      EdgeUpdate& win = it->second;
      if (up.op > win.op || (up.op == win.op && up.weight < win.weight)) {
        win = up;
      }
    }
    for (const auto& [k, up] : merged) {
      const auto it = edges_.find(k);
      switch (up.op) {
        case UpdateOp::kInsert:
          if (it == edges_.end()) {
            edges_.emplace(k, up.weight);
          } else {
            it->second = std::min(it->second, up.weight);
          }
          break;
        case UpdateOp::kSet:
          edges_[k] = up.weight;
          break;
        case UpdateOp::kDelete:
          if (it != edges_.end()) edges_.erase(it);
          break;
      }
    }
  }

  /// Both directed copies, sorted — the shape a gathered view must match.
  [[nodiscard]] std::vector<EdgeTuple> directed() const {
    std::vector<EdgeTuple> out;
    for (const auto& [k, w] : edges_) {
      out.emplace_back(k.first, k.second, w);
      out.emplace_back(k.second, k.first, w);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  /// One tuple per undirected edge — builder input for a fresh build.
  [[nodiscard]] EdgeList edge_list(VertexId n) const {
    EdgeList out;
    out.num_vertices = n;
    for (const auto& [k, w] : edges_) {
      out.edges.push_back(Edge{k.first, k.second, w});
    }
    return out;
  }

 private:
  static std::pair<VertexId, VertexId> key(VertexId u, VertexId v) {
    return {std::min(u, v), std::max(u, v)};
  }
  std::map<std::pair<VertexId, VertexId>, Weight> edges_;
};

/// Every directed edge of the committed view, gathered to all ranks.
std::vector<EdgeTuple> gather_view_edges(simmpi::Comm& comm,
                                         const DistGraph& g) {
  std::vector<WireEdge> mine;
  const VertexId my_begin = g.part.begin(comm.rank());
  for (LocalId u = 0; u < static_cast<LocalId>(g.part.count(comm.rank()));
       ++u) {
    for (std::uint64_t e = g.csr.edges_begin(u); e < g.csr.edges_end(u); ++e) {
      mine.push_back(WireEdge{my_begin + u, g.csr.dst(e), g.csr.weight(e)});
    }
  }
  const auto all = comm.allgatherv(mine);
  std::vector<EdgeTuple> out;
  out.reserve(all.size());
  for (const auto& e : all) out.emplace_back(e.src, e.dst, e.weight);
  std::sort(out.begin(), out.end());
  return out;
}

/// Hold the committed view to a from-scratch build of the reference edges
/// on the same ranks, array for array.  Hubs are compared only when
/// `with_hubs` is set: commits leave them stale until compact().
void expect_fresh_build(simmpi::Comm& comm, const DistGraph& view,
                        const RefGraph& ref, bool with_hubs,
                        const std::string& where) {
  const VertexId n = view.num_vertices;
  const DistGraph fresh = build_distributed(
      comm, slice_for_rank(ref.edge_list(n), comm.rank(), comm.size()), n);
  const auto same = [](auto a, auto b) { return std::ranges::equal(a, b); };
  EXPECT_TRUE(same(view.csr.offsets(), fresh.csr.offsets())) << where;
  EXPECT_TRUE(same(view.csr.adjacency(), fresh.csr.adjacency())) << where;
  EXPECT_TRUE(same(view.csr.weights(), fresh.csr.weights())) << where;
  EXPECT_TRUE(same(view.pull.sources(), fresh.pull.sources())) << where;
  EXPECT_TRUE(same(view.pull.offsets(), fresh.pull.offsets())) << where;
  EXPECT_TRUE(same(view.pull.destinations(), fresh.pull.destinations()))
      << where;
  EXPECT_TRUE(same(view.pull.weights(), fresh.pull.weights())) << where;
  EXPECT_EQ(view.num_directed_edges, fresh.num_directed_edges) << where;
  EXPECT_EQ(view.degree_hist.buckets(), fresh.degree_hist.buckets()) << where;
  if (with_hubs) {
    EXPECT_EQ(view.hubs, fresh.hubs) << where;
    EXPECT_EQ(view.hub_degrees, fresh.hub_degrees) << where;
  }
}

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
  });
  std::filesystem::remove_all(dir);
}

}  // namespace
