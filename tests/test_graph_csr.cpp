// Unit tests for LocalCsr and PullIndex.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "util/random.hpp"

namespace {

using namespace g500::graph;

LocalCsr make_csr() {
  // Vertex 0: edges to 10 (0.5), 11 (0.1), 12 (0.9)
  // Vertex 1: edge to 10 (0.3)
  // Vertex 2: no edges
  std::vector<WireEdge> edges = {
      {0, 10, 0.5f}, {0, 11, 0.1f}, {0, 12, 0.9f}, {1, 10, 0.3f}};
  return LocalCsr(3, std::move(edges));
}

TEST(LocalCsr, DegreesAndCounts) {
  const LocalCsr csr = make_csr();
  EXPECT_EQ(csr.num_local(), 3u);
  EXPECT_EQ(csr.num_edges(), 4u);
  EXPECT_EQ(csr.degree(0), 3u);
  EXPECT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.degree(2), 0u);
}

TEST(LocalCsr, AdjacencyIsWeightSorted) {
  const LocalCsr csr = make_csr();
  EXPECT_EQ(csr.dst(csr.edges_begin(0)), 11u);      // 0.1 first
  EXPECT_EQ(csr.dst(csr.edges_begin(0) + 1), 10u);  // 0.5
  EXPECT_EQ(csr.dst(csr.edges_begin(0) + 2), 12u);  // 0.9
  EXPECT_FLOAT_EQ(csr.weight(csr.edges_begin(0)), 0.1f);
}

TEST(LocalCsr, SplitAtSeparatesLightAndHeavy) {
  const LocalCsr csr = make_csr();
  // delta = 0.4: light edges of vertex 0 are {0.1}, heavy {0.5, 0.9}.
  const auto split = csr.split_at(0, 0.4f);
  EXPECT_EQ(split - csr.edges_begin(0), 1u);
  // delta = 1.0: everything light.
  EXPECT_EQ(csr.split_at(0, 1.0f), csr.edges_end(0));
  // delta = 0.05: everything heavy.
  EXPECT_EQ(csr.split_at(0, 0.05f), csr.edges_begin(0));
}

TEST(LocalCsr, SplitAtBoundaryIsHeavy) {
  // An edge with weight exactly delta is heavy (w >= delta).
  std::vector<WireEdge> edges = {{0, 1, 0.25f}};
  LocalCsr csr(1, std::move(edges));
  EXPECT_EQ(csr.split_at(0, 0.25f), csr.edges_begin(0));
}

TEST(LocalCsr, SplitAtOnEmptyAllLightAndAllHeavyRows) {
  // Vertex 0 has no edges, vertex 1 only light ones, vertex 2 only heavy
  // ones, and vertex 3 an edge weighing exactly delta, which is heavy.
  std::vector<WireEdge> edges = {{1, 7, 0.1f}, {1, 8, 0.2f}, {1, 9, 0.3f},
                                 {2, 7, 0.6f}, {2, 8, 0.7f}, {3, 7, 0.1f},
                                 {3, 8, 0.5f}, {3, 9, 0.5f}, {3, 6, 0.8f}};
  const LocalCsr csr(4, std::move(edges));
  EXPECT_EQ(csr.split_at(0, 0.5f), csr.edges_begin(0));
  EXPECT_EQ(csr.split_at(0, 0.5f), csr.edges_end(0));
  EXPECT_EQ(csr.split_at(1, 0.5f), csr.edges_end(1));
  EXPECT_EQ(csr.split_at(2, 0.5f), csr.edges_begin(2));
  EXPECT_EQ(csr.split_at(3, 0.5f) - csr.edges_begin(3), 1u);
  EXPECT_EQ(csr.split_at(3, 0.1f), csr.edges_begin(3));
  EXPECT_EQ(csr.split_at(3, 0.8f) - csr.edges_begin(3), 3u);
}

TEST(LocalCsr, GallopingSplitMatchesLowerBound) {
  // Every light count of rows up to 40 edges, with runs of tied weights,
  // against std::lower_bound over the row.
  std::vector<Weight> w;
  for (int i = 0; i < 40; ++i) w.push_back(0.025f * static_cast<float>(i / 3));
  for (std::uint64_t first = 0; first < 5; ++first) {
    for (std::uint64_t last = first; last <= w.size(); ++last) {
      for (const Weight delta : w) {
        const auto want = static_cast<std::uint64_t>(
            std::lower_bound(w.begin() + static_cast<std::ptrdiff_t>(first),
                             w.begin() + static_cast<std::ptrdiff_t>(last),
                             delta) -
            w.begin());
        EXPECT_EQ(gallop_split(w, first, last, delta), want)
            << "row [" << first << ", " << last << ") delta " << delta;
      }
      EXPECT_EQ(gallop_split(w, first, last, 1.0f), last);
    }
  }
}

TEST(LocalCsr, EmptyGraph) {
  LocalCsr csr(4, {});
  EXPECT_EQ(csr.num_edges(), 0u);
  for (LocalId u = 0; u < 4; ++u) EXPECT_EQ(csr.degree(u), 0u);
}

TEST(LocalCsr, RejectsOutOfRangeSource) {
  std::vector<WireEdge> edges = {{5, 0, 0.5f}};
  EXPECT_THROW(LocalCsr(3, std::move(edges)), std::out_of_range);
}

TEST(LocalCsr, TieWeightsOrderedByDestination) {
  std::vector<WireEdge> edges = {{0, 9, 0.5f}, {0, 3, 0.5f}, {0, 6, 0.5f}};
  LocalCsr csr(1, std::move(edges));
  EXPECT_EQ(csr.dst(0), 3u);
  EXPECT_EQ(csr.dst(1), 6u);
  EXPECT_EQ(csr.dst(2), 9u);
}

TEST(PullIndex, RegroupsBySource) {
  const LocalCsr csr = make_csr();
  const PullIndex pull = PullIndex::from_csr(csr);
  EXPECT_EQ(pull.num_entries(), csr.num_edges());
  EXPECT_EQ(pull.num_sources(), 3u);  // neighbours 10, 11, 12

  // Source 10 has in-edges to local 0 (w 0.5) and local 1 (w 0.3),
  // weight-sorted.
  const auto r = pull.find(10);
  ASSERT_EQ(r.last - r.first, 2u);
  EXPECT_EQ(pull.dst(r.first), 1u);
  EXPECT_FLOAT_EQ(pull.weight(r.first), 0.3f);
  EXPECT_EQ(pull.dst(r.first + 1), 0u);
  EXPECT_FLOAT_EQ(pull.weight(r.first + 1), 0.5f);
}

TEST(PullIndex, FindMissingSourceIsEmpty) {
  const PullIndex pull = PullIndex::from_csr(make_csr());
  EXPECT_TRUE(pull.find(999).empty());
  EXPECT_TRUE(pull.find(0).empty());  // 0 is a local vertex, not a neighbour
}

TEST(PullIndex, FindReportsIndexForSplitCache) {
  const PullIndex pull = PullIndex::from_csr(make_csr());
  std::size_t idx = 99;
  const auto r = pull.find(11, &idx);
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(pull.range(idx).first, r.first);
  EXPECT_EQ(pull.range(idx).last, r.last);
}

TEST(PullIndex, SplitAtMatchesWeights) {
  const PullIndex pull = PullIndex::from_csr(make_csr());
  const auto r = pull.find(10);
  // Weights in range: {0.3, 0.5}; delta 0.4 keeps one light entry.
  EXPECT_EQ(pull.split_at(r, 0.4f) - r.first, 1u);
  EXPECT_EQ(pull.split_at(r, 0.1f), r.first);
  EXPECT_EQ(pull.split_at(r, 0.9f), r.last);
}

TEST(PullIndex, EmptyCsrGivesEmptyIndex) {
  LocalCsr csr(2, {});
  const PullIndex pull = PullIndex::from_csr(csr);
  EXPECT_EQ(pull.num_sources(), 0u);
  EXPECT_EQ(pull.num_entries(), 0u);
  EXPECT_TRUE(pull.find(0).empty());
}

TEST(PullIndex, SourcesAreSortedUnique) {
  const PullIndex pull = PullIndex::from_csr(make_csr());
  const auto sources = pull.sources();
  for (std::size_t i = 1; i < sources.size(); ++i) {
    EXPECT_LT(sources[i - 1], sources[i]);
  }
}


/// Sweep `queries` (ascending) with one seek cursor and require every
/// answer to equal find's: the same range and, for a present source, the
/// same group index.  For an absent id the cursor rests on the first
/// larger source.
void expect_seek_matches_find(const PullIndex& pull,
                              const std::vector<VertexId>& queries) {
  constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();
  std::size_t cursor = 0;
  for (const VertexId s : queries) {
    std::size_t index = kUnset;
    const auto want = pull.find(s, &index);
    const auto got = pull.seek(s, cursor);
    ASSERT_EQ(got.first, want.first) << "id " << s;
    ASSERT_EQ(got.last, want.last) << "id " << s;
    if (index != kUnset) {
      ASSERT_EQ(cursor, index) << "id " << s;
    } else {
      ASSERT_TRUE(cursor == pull.num_sources() || pull.sources()[cursor] > s)
          << "id " << s;
      ASSERT_TRUE(cursor == 0 || pull.sources()[cursor - 1] < s) << "id " << s;
    }
  }
}

/// Sweeps that hit every source, every absent id between sources, ids
/// before the first source and after the last, and strides long enough to
/// make the search gallop.
void expect_sweeps_match_find(const PullIndex& pull, VertexId last_id) {
  for (const VertexId stride : {1, 2, 7, 97, 1000}) {
    std::vector<VertexId> queries;
    for (VertexId s = 0; s <= last_id + stride; s += stride) {
      queries.push_back(s);
    }
    expect_seek_matches_find(pull, queries);
  }
  // Sources only, skipping ever more of them; then one id asked twice.
  for (std::size_t skip : {1, 3, 40}) {
    std::vector<VertexId> queries;
    for (std::size_t i = 0; i < pull.num_sources(); i += skip) {
      queries.push_back(pull.sources()[i]);
    }
    expect_seek_matches_find(pull, queries);
  }
  expect_seek_matches_find(pull, {5, 5, 6, 6});
}

TEST(PullIndex, SeekSweepMatchesFind) {
  // Sources 5 + i(i+1)/2 (gaps growing from 1 to ~120) and a run of
  // consecutive ids; some sources have two entries.
  std::vector<WireEdge> edges;
  VertexId last = 0;
  for (VertexId i = 0; i < 120; ++i) {
    last = 5 + i * (i + 1) / 2;
    edges.push_back({i % 3, last, 0.05f + 0.1f * static_cast<float>(i % 7)});
    if (i % 4 == 0) edges.push_back({2, last, 0.95f});
  }
  for (VertexId s = 8000; s < 8032; ++s) {
    edges.push_back({s % 3, s, 0.5f});
    last = s;
  }
  const PullIndex pull = PullIndex::from_csr(LocalCsr(3, std::move(edges)));
  ASSERT_EQ(pull.num_sources(), 152u);
  expect_sweeps_match_find(pull, last);

  // The same sweeps over a non-owning view of those arrays, as a mapped
  // shard provides.
  const PullIndex view = PullIndex::view(pull.sources(), pull.offsets(),
                                         pull.destinations(), pull.weights());
  ASSERT_FALSE(view.owns_storage());
  expect_sweeps_match_find(view, last);
}

TEST(PullIndex, SeekOnEmptyIndexFindsNothing) {
  const PullIndex empty = PullIndex::from_csr(LocalCsr(2, {}));
  expect_sweeps_match_find(empty, 50);
  std::size_t cursor = 0;
  EXPECT_TRUE(empty.seek(7, cursor).empty());
  EXPECT_EQ(cursor, 0u);
  expect_sweeps_match_find(PullIndex{}, 50);
}

// A splice equals a rebuild of the changed edges, for the CSR and for its
// pull index, on random rows with weight ties (weights are quarters, so
// equal weights are common and the destination breaks them).
TEST(LocalCsr, SpliceMatchesRebuildOfChangedEdges) {
  g500::util::SplitMix64 rng(0x5911CE);
  const auto quarter = [&] {
    return static_cast<Weight>(rng.next_below(4)) * 0.25f;
  };
  const auto same = [](auto a, auto b) { return std::ranges::equal(a, b); };
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<LocalId>(1 + rng.next_below(24));
    const VertexId ids = 1 + rng.next_below(48);  // neighbour id range
    std::map<std::pair<LocalId, VertexId>, Weight> edges;
    for (std::uint64_t i = rng.next_below(4 * n + 1); i > 0; --i) {
      edges[{static_cast<LocalId>(rng.next_below(n)), rng.next_below(ids)}] =
          quarter();
    }
    const auto csr_of = [&] {
      std::vector<WireEdge> list;
      for (const auto& [k, w] : edges) list.push_back({k.first, k.second, w});
      return LocalCsr(n, std::move(list));
    };
    const LocalCsr before = csr_of();

    // Upserts and removals of present and absent edges, each pair once.
    std::map<std::pair<LocalId, VertexId>, EdgeChange> batch;
    for (std::uint64_t i = rng.next_below(12); i > 0; --i) {
      auto key = std::pair{static_cast<LocalId>(rng.next_below(n)),
                           rng.next_below(ids)};
      if (!edges.empty() && rng.next_below(2) == 0) {
        key = std::next(edges.begin(),
                        static_cast<std::ptrdiff_t>(
                            rng.next_below(edges.size())))->first;
      }
      batch[key] = EdgeChange{key.first, key.second, quarter(),
                              rng.next_below(3) == 0};
    }
    std::vector<EdgeChange> changes;
    for (const auto& [k, c] : batch) {
      changes.push_back(c);
      if (c.removed) {
        edges.erase(k);
      } else {
        edges[k] = c.weight;
      }
    }
    const LocalCsr want = csr_of();

    const LocalCsr got = before.splice(changes);
    ASSERT_TRUE(got.owns_storage());
    EXPECT_TRUE(same(got.offsets(), want.offsets())) << "trial " << trial;
    EXPECT_TRUE(same(got.adjacency(), want.adjacency())) << "trial " << trial;
    EXPECT_TRUE(same(got.weights(), want.weights())) << "trial " << trial;

    const PullIndex got_pull = PullIndex::from_csr(before).splice(changes);
    const PullIndex want_pull = PullIndex::from_csr(want);
    EXPECT_TRUE(same(got_pull.sources(), want_pull.sources()))
        << "trial " << trial;
    EXPECT_TRUE(same(got_pull.offsets(), want_pull.offsets()))
        << "trial " << trial;
    EXPECT_TRUE(same(got_pull.destinations(), want_pull.destinations()))
        << "trial " << trial;
    EXPECT_TRUE(same(got_pull.weights(), want_pull.weights()))
        << "trial " << trial;
  }
}

TEST(LocalCsr, SpliceRejectsMalformedChanges) {
  const LocalCsr csr = make_csr();
  const PullIndex pull = PullIndex::from_csr(csr);
  const std::vector<EdgeChange> unsorted = {{1, 10, 0.5f, false},
                                            {0, 11, 0.5f, false}};
  const std::vector<EdgeChange> repeated = {{0, 11, 0.5f, false},
                                            {0, 11, 0.2f, true}};
  EXPECT_THROW((void)csr.splice(unsorted), std::invalid_argument);
  EXPECT_THROW((void)csr.splice(repeated), std::invalid_argument);
  EXPECT_THROW((void)pull.splice(unsorted), std::invalid_argument);
  EXPECT_THROW((void)pull.splice(repeated), std::invalid_argument);
  const std::vector<EdgeChange> remote_source = {{3, 10, 0.5f, false}};
  EXPECT_THROW((void)csr.splice(remote_source), std::out_of_range);
}

}  // namespace
