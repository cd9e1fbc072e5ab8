// Tests for distributed graph construction: cleaning semantics, rank-count
// invariance, hub selection, and identity with the comparator build.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

/// Gather the full directed edge set (src, dst, w) of a DistGraph.
std::map<std::pair<VertexId, VertexId>, Weight> collect_edges(
    simmpi::Comm& comm, const DistGraph& g) {
  struct Row {
    VertexId src, dst;
    Weight w;
  };
  std::vector<Row> mine;
  const VertexId my_begin = g.part.begin(comm.rank());
  for (LocalId u = 0; u < g.csr.num_local(); ++u) {
    for (std::uint64_t e = g.csr.edges_begin(u); e < g.csr.edges_end(u); ++e) {
      mine.push_back(Row{my_begin + u, g.csr.dst(e), g.csr.weight(e)});
    }
  }
  const auto all = comm.allgatherv(mine);
  std::map<std::pair<VertexId, VertexId>, Weight> out;
  for (const auto& r : all) out[{r.src, r.dst}] = r.w;
  return out;
}

TEST(Builder, DropsSelfLoopsAndDedupsToMinWeight) {
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {
      {0, 1, 0.9f}, {1, 0, 0.2f},  // duplicate in both orientations
      {0, 1, 0.5f},                // duplicate same orientation
      {2, 2, 0.1f},                // self loop
      {2, 3, 0.7f},
  };
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()), 4);
    EXPECT_EQ(g.num_input_edges, 5u);
    EXPECT_EQ(g.num_directed_edges, 4u);  // {0,1} + {2,3}, both directions
    const auto edges = collect_edges(comm, g);
    ASSERT_EQ(edges.size(), 4u);
    EXPECT_FLOAT_EQ(edges.at({0, 1}), 0.2f);
    EXPECT_FLOAT_EQ(edges.at({1, 0}), 0.2f);
    EXPECT_FLOAT_EQ(edges.at({2, 3}), 0.7f);
    EXPECT_FLOAT_EQ(edges.at({3, 2}), 0.7f);
    EXPECT_EQ(edges.count({2, 2}), 0u);
  });
}

/// One rank's CSR, pull index and hubs as the comparator build made them
/// before construction sorted with util::radix_sort: dedup by std::sort on
/// (src, dst, weight), CSR order (src, weight, dst), pull order
/// (neighbour, weight, local source), hubs by nth_element and sort.
struct ComparatorBuild {
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> dst;
  std::vector<Weight> w;
  std::vector<VertexId> pull_sources;
  std::vector<std::uint64_t> pull_offsets;
  std::vector<LocalId> pull_dst;
  std::vector<Weight> pull_w;
  std::vector<VertexId> hubs;
};

ComparatorBuild comparator_build(simmpi::Comm& comm, const EdgeList& slice,
                                 VertexId n, std::size_t hub_count) {
  const BlockPartition part(n, comm.size());
  std::vector<std::vector<WireEdge>> outbox(
      static_cast<std::size_t>(comm.size()));
  for (const auto& e : slice.edges) {
    if (e.src == e.dst) continue;
    outbox[static_cast<std::size_t>(part.owner(e.src))].push_back(
        WireEdge{e.src, e.dst, e.weight});
    outbox[static_cast<std::size_t>(part.owner(e.dst))].push_back(
        WireEdge{e.dst, e.src, e.weight});
  }
  std::vector<WireEdge> mine = comm.alltoallv(outbox);
  std::sort(mine.begin(), mine.end(), [](const WireEdge& a, const WireEdge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    return a.weight < b.weight;
  });
  mine.erase(std::unique(mine.begin(), mine.end(),
                         [](const WireEdge& a, const WireEdge& b) {
                           return a.src == b.src && a.dst == b.dst;
                         }),
             mine.end());
  std::sort(mine.begin(), mine.end(), [](const WireEdge& a, const WireEdge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.dst < b.dst;
  });

  ComparatorBuild ref;
  const VertexId my_begin = part.begin(comm.rank());
  ref.offsets.assign(part.count(comm.rank()) + 1, 0);
  for (const auto& e : mine) {
    ++ref.offsets[e.src - my_begin + 1];
    ref.dst.push_back(e.dst);
    ref.w.push_back(e.weight);
  }
  for (std::size_t i = 1; i < ref.offsets.size(); ++i) {
    ref.offsets[i] += ref.offsets[i - 1];
  }

  struct Entry {
    VertexId src;
    LocalId dst;
    Weight w;
  };
  std::vector<Entry> entries;
  for (const auto& e : mine) {
    entries.push_back(
        Entry{e.dst, static_cast<LocalId>(e.src - my_begin), e.weight});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.w != b.w) return a.w < b.w;
    return a.dst < b.dst;
  });
  for (const auto& x : entries) {
    if (ref.pull_sources.empty() || ref.pull_sources.back() != x.src) {
      ref.pull_sources.push_back(x.src);
      ref.pull_offsets.push_back(ref.pull_dst.size());
    }
    ref.pull_dst.push_back(x.dst);
    ref.pull_w.push_back(x.w);
  }
  ref.pull_offsets.push_back(ref.pull_dst.size());

  struct Candidate {
    VertexId vertex;
    std::uint64_t degree;
  };
  const auto hub_less = [](const Candidate& a, const Candidate& b) {
    if (a.degree != b.degree) return a.degree > b.degree;
    return a.vertex < b.vertex;
  };
  std::vector<Candidate> local;
  for (std::size_t u = 0; u + 1 < ref.offsets.size(); ++u) {
    const std::uint64_t degree = ref.offsets[u + 1] - ref.offsets[u];
    if (degree > 0) local.push_back(Candidate{my_begin + u, degree});
  }
  if (local.size() > hub_count) {
    std::nth_element(local.begin(),
                     local.begin() + static_cast<std::ptrdiff_t>(hub_count),
                     local.end(), hub_less);
    local.resize(hub_count);
  }
  std::sort(local.begin(), local.end(), hub_less);
  std::vector<Candidate> all = comm.allgatherv(local);
  std::sort(all.begin(), all.end(), hub_less);
  if (all.size() > hub_count) all.resize(hub_count);
  for (const auto& c : all) ref.hubs.push_back(c.vertex);
  return ref;
}

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

TEST(Builder, MatchesComparatorReference) {
  // Duplicates in both orientations, self-loops and weights from five
  // values, zero among them, so (src, weight) ties are common; a quarter
  // of the edges end at one of four vertices, whose rows outgrow the
  // radix kernel's comparison-sort cutoff.
  const VertexId n = 3000;
  const VertexId heavy[] = {7, 42, 1500, n - 1};
  util::SplitMix64 rng(20);
  const auto weight = [&] {
    return 0.25f * static_cast<float>(rng.next_below(5));
  };
  EdgeList list;
  list.num_vertices = n;
  for (int i = 0; i < 20000; ++i) {
    const VertexId u = rng.next_below(n);
    const VertexId v =
        rng.next_below(4) == 0 ? heavy[rng.next_below(4)] : rng.next_below(n);
    list.edges.push_back(Edge{u, v, weight()});
  }
  for (int i = 0; i < 3000; ++i) {
    const Edge e = list.edges[rng.next_below(20000)];
    list.edges.push_back(i % 2 == 0 ? Edge{e.src, e.dst, weight()}
                                    : Edge{e.dst, e.src, e.weight});
  }
  for (int i = 0; i < 200; ++i) {
    const VertexId u = rng.next_below(n);
    list.edges.push_back(Edge{u, u, weight()});
  }
  std::shuffle(list.edges.begin(), list.edges.end(), rng);

  for (const int ranks : {1, 2, 3, 5}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const EdgeList slice = slice_for_rank(list, comm.rank(), comm.size());
      const DistGraph g = build_distributed(comm, slice, n);
      const ComparatorBuild want =
          comparator_build(comm, slice, n, resolved_hub_count({}, n));
      const std::string where = "rank " + std::to_string(comm.rank()) +
                                " of " + std::to_string(ranks);
      EXPECT_EQ(to_vector(g.csr.offsets()), want.offsets) << where;
      EXPECT_EQ(to_vector(g.csr.adjacency()), want.dst) << where;
      EXPECT_EQ(to_vector(g.csr.weights()), want.w) << where;
      EXPECT_EQ(to_vector(g.pull.sources()), want.pull_sources) << where;
      EXPECT_EQ(to_vector(g.pull.offsets()), want.pull_offsets) << where;
      EXPECT_EQ(to_vector(g.pull.destinations()), want.pull_dst) << where;
      EXPECT_EQ(to_vector(g.pull.weights()), want.pull_w) << where;
      EXPECT_EQ(g.hubs, want.hubs) << where;
      EXPECT_FALSE(want.hubs.empty()) << where;
    });
  }
}

class BuilderRankSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, BuilderRankSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST_P(BuilderRankSweep, GlobalStructureIsRankCountInvariant) {
  KroneckerParams params;
  params.scale = 8;
  params.edgefactor = 8;

  // Reference: single-rank build.
  std::map<std::pair<VertexId, VertexId>, Weight> reference;
  {
    simmpi::World world(1);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      reference = collect_edges(comm, g);
    });
  }

  simmpi::World world(GetParam());
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const auto edges = collect_edges(comm, g);
    ASSERT_EQ(edges.size(), reference.size());
    for (const auto& [key, w] : reference) {
      auto it = edges.find(key);
      ASSERT_NE(it, edges.end())
          << "missing edge " << key.first << "->" << key.second;
      EXPECT_FLOAT_EQ(it->second, w);
    }
    EXPECT_EQ(g.num_input_edges, params.num_edges());
  });
}

TEST_P(BuilderRankSweep, HubListIsIdenticalOnAllRanks) {
  KroneckerParams params;
  params.scale = 9;
  simmpi::World world(GetParam());
  BuildOptions opts;
  opts.hub_count = 16;
  const auto hub_lists =
      world.run_collect<std::vector<VertexId>>([&](simmpi::Comm& comm) {
        return build_kronecker(comm, params, opts).hubs;
      });
  for (std::size_t r = 1; r < hub_lists.size(); ++r) {
    EXPECT_EQ(hub_lists[r], hub_lists[0]);
  }
  EXPECT_EQ(hub_lists[0].size(), 16u);
}

TEST(Builder, HubsAreTheTopDegreeVertices) {
  // Star graph: vertex 0 has degree n-1, all others degree 1.
  const EdgeList star = star_graph(64);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.hub_count = 4;
    const DistGraph g = build_distributed(
        comm, slice_for_rank(star, comm.rank(), comm.size()), 64, opts);
    ASSERT_EQ(g.hubs.size(), 4u);
    EXPECT_EQ(g.hubs[0], 0u);           // the center
    EXPECT_EQ(g.hub_degrees[0], 63u);
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(g.hub_degrees[i], 1u);
    }
    // Ties broken by ascending id.
    EXPECT_LT(g.hubs[1], g.hubs[2]);
    EXPECT_LT(g.hubs[2], g.hubs[3]);
  });
}

TEST(Builder, HubCountZeroDisablesHubs) {
  KroneckerParams params;
  params.scale = 7;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.hub_count = 0;
    const DistGraph g = build_kronecker(comm, params, opts);
    EXPECT_TRUE(g.hubs.empty());
  });
}

TEST(Builder, PullIndexOptional) {
  KroneckerParams params;
  params.scale = 7;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.build_pull_index = false;
    const DistGraph g = build_kronecker(comm, params, opts);
    EXPECT_EQ(g.pull.num_entries(), 0u);
    BuildOptions with;
    const DistGraph g2 = build_kronecker(comm, params, with);
    EXPECT_EQ(g2.pull.num_entries(), g2.csr.num_edges());
  });
}

TEST(Builder, SliceForRankTilesInput) {
  const EdgeList whole = path_graph(100);
  std::size_t total = 0;
  for (int r = 0; r < 7; ++r) {
    total += slice_for_rank(whole, r, 7).edges.size();
  }
  EXPECT_EQ(total, whole.edges.size());
  EXPECT_THROW((void)slice_for_rank(whole, 7, 7), std::invalid_argument);
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  EdgeList bad;
  bad.num_vertices = 4;
  bad.edges = {{0, 9, 0.5f}};
  simmpi::World world(1);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 (void)build_distributed(comm, bad, 4);
               }),
               std::out_of_range);
}

TEST(Builder, EmptyVertexSetRejected) {
  simmpi::World world(1);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 (void)build_distributed(comm, EdgeList{}, 0);
               }),
               std::invalid_argument);
}

TEST(Builder, EdgelessGraphBuilds) {
  EdgeList isolated;
  isolated.num_vertices = 8;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, isolated, 8);
    EXPECT_EQ(g.num_directed_edges, 0u);
    EXPECT_TRUE(g.hubs.empty());  // no vertex has degree > 0
  });
}

}  // namespace
