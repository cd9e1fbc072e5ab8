// Unit tests for LocalCsr, its DeltaSplit and PullIndex.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/delta_stepping.hpp"
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

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

TEST(PullIndex, RegroupsBySource) {
  const LocalCsr csr = make_csr();
  const PullIndex pull = PullIndex::from_csr(csr);
  EXPECT_EQ(pull.num_entries(), csr.num_edges());
  EXPECT_EQ(pull.num_sources(), 3u);

  // Neighbours 10, 11 and 12 (local vertices are never sources).  Source
  // 10 has in-edges to local 1 (w 0.3) and local 0 (w 0.5), weight-sorted;
  // 11 and 12 one each, to local 0.
  EXPECT_EQ(to_vector(pull.sources()), (std::vector<VertexId>{10, 11, 12}));
  EXPECT_EQ(to_vector(pull.offsets()),
            (std::vector<std::uint64_t>{0, 2, 3, 4}));
  EXPECT_EQ(to_vector(pull.destinations()), (std::vector<LocalId>{1, 0, 0, 0}));
  EXPECT_EQ(to_vector(pull.weights()),
            (std::vector<Weight>{0.3f, 0.5f, 0.1f, 0.9f}));
}

TEST(PullIndex, EmptyCsrGivesEmptyIndex) {
  LocalCsr csr(2, {});
  const PullIndex pull = PullIndex::from_csr(csr);
  EXPECT_EQ(pull.num_sources(), 0u);
  EXPECT_EQ(pull.num_entries(), 0u);
  EXPECT_TRUE(pull.sources().empty());
  EXPECT_EQ(to_vector(pull.offsets()), (std::vector<std::uint64_t>{0}));
  EXPECT_TRUE(pull.destinations().empty());
  EXPECT_TRUE(pull.weights().empty());
}

TEST(PullIndex, SourcesAreSortedUnique) {
  const PullIndex pull = PullIndex::from_csr(make_csr());
  const auto sources = pull.sources();
  for (std::size_t i = 1; i < sources.size(); ++i) {
    EXPECT_LT(sources[i - 1], sources[i]);
  }
}

/// The invariants every reader of the four arrays relies on: offsets has
/// one entry per source plus one and rises from 0 to the entry count with
/// no empty group, and each group is weight-sorted with ties ordered by
/// destination.
void expect_well_formed(const PullIndex& pull) {
  const auto offsets = pull.offsets();
  ASSERT_EQ(offsets.size(), pull.num_sources() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), pull.num_entries());
  ASSERT_EQ(pull.weights().size(), pull.num_entries());
  for (std::size_t i = 0; i < pull.num_sources(); ++i) {
    ASSERT_LT(offsets[i], offsets[i + 1]) << "group " << i;
    for (std::uint64_t e = offsets[i] + 1; e < offsets[i + 1]; ++e) {
      const auto key = [&](std::uint64_t k) {
        return std::pair(pull.weights()[k], pull.destinations()[k]);
      };
      ASSERT_LT(key(e - 1), key(e)) << "group " << i << " entry " << e;
    }
  }
}

TEST(PullIndex, GroupsAreWeightSortedAndViewsReadTheSameArrays) {
  // Sources 5 + i(i+1)/2 (gaps growing from 1 to ~120) and a run of
  // consecutive ids; some sources have two entries, some weights tie.
  std::vector<WireEdge> edges;
  for (VertexId i = 0; i < 120; ++i) {
    const VertexId s = 5 + i * (i + 1) / 2;
    edges.push_back({i % 3, s, 0.05f + 0.1f * static_cast<float>(i % 7)});
    if (i % 4 == 0) edges.push_back({2, s, 0.95f});
    if (i % 5 == 0) edges.push_back({(i + 1) % 2, s, 0.95f});
  }
  for (VertexId s = 8000; s < 8032; ++s) edges.push_back({s % 3, s, 0.5f});
  const std::size_t num_edges = edges.size();
  const PullIndex pull = PullIndex::from_csr(LocalCsr(3, std::move(edges)));
  ASSERT_EQ(pull.num_sources(), 152u);
  EXPECT_EQ(pull.num_entries(), num_edges);
  expect_well_formed(pull);

  // A non-owning view of those arrays, as a mapped shard provides, reads
  // them in place.
  const PullIndex view = PullIndex::view(pull.sources(), pull.offsets(),
                                         pull.destinations(), pull.weights());
  ASSERT_FALSE(view.owns_storage());
  EXPECT_EQ(view.sources().data(), pull.sources().data());
  EXPECT_EQ(view.offsets().data(), pull.offsets().data());
  EXPECT_EQ(view.destinations().data(), pull.destinations().data());
  EXPECT_EQ(view.weights().data(), pull.weights().data());
  EXPECT_EQ(view.num_sources(), pull.num_sources());
  EXPECT_EQ(view.num_entries(), pull.num_entries());
  expect_well_formed(view);
}

TEST(PullIndex, DefaultIndexHasNoArrays) {
  const PullIndex empty;
  EXPECT_EQ(empty.num_sources(), 0u);
  EXPECT_EQ(empty.num_entries(), 0u);
  EXPECT_TRUE(empty.offsets().empty());
  EXPECT_TRUE(empty.weights().empty());
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

// --------------------------------------------------------------------------
// DeltaSplit: the engine's per-delta view of the rows, memoized on them.
// --------------------------------------------------------------------------

/// Hold `split` to a plain scan of `csr`'s rows at its delta: the first edge
/// with w >= delta, the light edges copied in row order and the row lists.
void expect_direct_scan(const LocalCsr& csr, const DeltaSplit& split,
                        const std::string& where) {
  const Weight delta = split.delta;
  std::vector<std::uint64_t> want_split;
  std::vector<std::uint64_t> want_offsets{0};
  std::vector<VertexId> want_dst;
  std::vector<Weight> want_w;
  std::vector<std::pair<LocalId, Weight>> want_light_rows;
  std::vector<std::pair<LocalId, Weight>> want_heavy_rows;
  for (LocalId u = 0; u < csr.num_local(); ++u) {
    std::uint64_t e = csr.edges_begin(u);
    for (; e < csr.edges_end(u) && csr.weight(e) < delta; ++e) {
      want_dst.push_back(csr.dst(e));
      want_w.push_back(csr.weight(e));
    }
    want_split.push_back(e);
    want_offsets.push_back(want_dst.size());
    if (e != csr.edges_begin(u)) {
      want_light_rows.emplace_back(u, csr.weight(csr.edges_begin(u)));
    }
    if (e != csr.edges_end(u)) want_heavy_rows.emplace_back(u, csr.weight(e));
  }
  const auto pairs = [](const std::vector<DeltaSplit::PullRow>& rows) {
    std::vector<std::pair<LocalId, Weight>> out;
    for (const auto& r : rows) out.emplace_back(r.v, r.w0);
    return out;
  };
  std::vector<std::uint64_t> got_split;
  for (LocalId u = 0; u < csr.num_local(); ++u) {
    got_split.push_back(csr.edges_begin(u) + split.light_degree(u));
  }
  EXPECT_EQ(got_split, want_split) << where;
  EXPECT_EQ(split.light_offsets, want_offsets) << where;
  EXPECT_EQ(split.light_dst, want_dst) << where;
  EXPECT_EQ(split.light_w, want_w) << where;
  EXPECT_EQ(pairs(split.light_rows), want_light_rows) << where;
  EXPECT_EQ(pairs(split.heavy_rows), want_heavy_rows) << where;
}

/// The delta the engine picks for a graph of these rows (auto_delta).
double auto_delta_of(const LocalCsr& csr) {
  struct Shape {
    std::uint64_t num_directed_edges;
    VertexId num_vertices;
  };
  return g500::core::auto_delta(Shape{csr.num_edges(), csr.num_local()});
}

// Random rows over an adversarial weight alphabet: 0, float(delta) and its
// two neighbouring floats, 2 float(delta), a few other values repeated so
// that weights tie and the destination orders them, with empty, all-light,
// all-heavy and mixed rows.
TEST(DeltaSplit, MatchesADirectScanOfTheRows) {
  g500::util::SplitMix64 rng(0xD17A);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<LocalId>(1 + rng.next_below(40));
    const auto make = [&](Weight delta) {
      const std::vector<Weight> light{
          0.0f, std::nextafter(delta, 0.0f), delta / 2, delta / 3,
          delta / 3};
      const std::vector<Weight> heavy{
          delta, std::nextafter(delta, 2.0f), 2 * delta, 0.9f, 0.9f};
      std::vector<WireEdge> edges;
      for (LocalId u = 0; u < n; ++u) {
        const auto kind = rng.next_below(4);  // empty, light, heavy, mixed
        if (kind == 0) continue;
        const auto degree = 1 + rng.next_below(12);
        std::vector<VertexId> dst(64);
        for (VertexId i = 0; i < dst.size(); ++i) dst[i] = i;
        for (std::uint64_t i = 0; i < degree; ++i) {
          std::swap(dst[i], dst[i + rng.next_below(dst.size() - i)]);
          const bool is_light =
              kind == 1 || (kind == 3 && rng.next_below(2) == 0);
          const auto& alphabet = is_light ? light : heavy;
          const Weight w = alphabet[rng.next_below(alphabet.size())];
          edges.push_back({u, dst[i], w});
        }
      }
      return LocalCsr(n, std::move(edges));
    };
    for (const double d : {0.1, 0.7, 1.0 / 3.0, 0.0}) {
      // Auto: the delta of a first draw of rows, then rows drawn for it.
      const auto delta = static_cast<Weight>(
          d > 0.0 ? d : auto_delta_of(make(0.5f)));
      const LocalCsr csr = make(delta);
      const std::string where =
          "trial " + std::to_string(trial) + " delta " + std::to_string(delta);
      expect_direct_scan(csr, DeltaSplit(csr, delta), where);
      expect_direct_scan(csr, *csr.delta_split(delta), where + " (memo)");
      // A view over the same arrays splits them the same way.
      const LocalCsr view = LocalCsr::view(n, csr.offsets(), csr.adjacency(),
                                           csr.weights());
      expect_direct_scan(view, *view.delta_split(delta), where + " (view)");
    }
  }
}

TEST(DeltaSplit, MemoIsKeptPerDeltaBitsAndSharedByCopies) {
  const LocalCsr csr = make_csr();
  const auto half = csr.delta_split(0.5f);
  EXPECT_EQ(csr.delta_split(0.5f), half);  // the same object, not a copy
  EXPECT_EQ(half->delta, 0.5f);
  // A delta of other bits replaces the memo, and the first one, still
  // held, is not reused when its delta comes back.
  const auto other = csr.delta_split(std::nextafter(0.5f, 1.0f));
  EXPECT_NE(other, half);
  const auto again = csr.delta_split(0.5f);
  EXPECT_NE(again, half);
  expect_direct_scan(csr, *again, "re-derived");
  // Equal rows split equally: a copy shares the split, a move takes it.
  LocalCsr copy = csr;
  EXPECT_EQ(copy.delta_split(0.5f), again);
  const LocalCsr moved = std::move(copy);
  EXPECT_EQ(moved.delta_split(0.5f), again);
  // A view over the same arrays starts without one.
  const LocalCsr view =
      LocalCsr::view(csr.num_local(), csr.offsets(), csr.adjacency(),
                     csr.weights());
  EXPECT_NE(view.delta_split(0.5f), again);
}

// Threads sharing one CSR, at two deltas: each gets a whole split for its
// delta, however the memo is replaced in between (a TSan build checks the
// memo's locking).
TEST(DeltaSplit, ThreadsSharingOneCsrEachGetTheirDeltasSplit) {
  const LocalCsr csr = make_csr();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&csr, t] {
      for (int i = 0; i < 200; ++i) {
        const Weight delta = (t + i) % 2 == 0 ? 0.4f : 0.6f;
        const auto split = csr.delta_split(delta);
        EXPECT_EQ(split->delta, delta);
        EXPECT_EQ(split->light_dst.size(), delta == 0.4f ? 2u : 3u);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

// A splice starts without a split: after it, the spliced rows split as a
// direct scan of them says, although the old rows had one at that delta.
TEST(DeltaSplit, SpliceStartsWithoutASplit) {
  const LocalCsr csr = make_csr();
  const auto before = csr.delta_split(0.4f);
  ASSERT_EQ(before->light_dst.size(), 2u);  // 0 -> 11 (0.1) and 1 -> 10 (0.3)
  const std::vector<EdgeChange> changes = {{0, 10, 0.2f, false},
                                           {1, 10, 0.0f, true},
                                           {2, 13, 0.1f, false}};
  const LocalCsr spliced = csr.splice(changes);
  const auto after = spliced.delta_split(0.4f);
  EXPECT_NE(after, before);
  EXPECT_EQ(after->light_dst.size(), 3u);
  expect_direct_scan(spliced, *after, "spliced");
}

}  // namespace
