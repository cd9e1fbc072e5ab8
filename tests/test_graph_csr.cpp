// Unit tests for LocalCsr and its DeltaSplit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <tuple>
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

/// The builders' rule by comparison sorts: by (src, dst, weight), keep the
/// first of each (src, dst), then order by (src, weight, dst).
std::vector<WireEdge> reference_dedup(std::vector<WireEdge> edges) {
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    return std::tie(a.src, a.dst, a.weight) < std::tie(b.src, b.dst, b.weight);
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const auto& a, const auto& b) {
                            return a.src == b.src && a.dst == b.dst;
                          }),
              edges.end());
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    return std::tie(a.src, a.weight, a.dst) < std::tie(b.src, b.weight, b.dst);
  });
  return edges;
}

/// Parallel edges of every kind: up to 8 copies of one (src, dst) with
/// equal or unequal weights and the lightest copy last, weight 0, equal
/// weights on different dst, and rows of up to 3 x SeenSet::kInitialSlots
/// distinct destinations, so the seen set grows.
std::vector<WireEdge> parallel_edges(g500::util::SplitMix64& rng) {
  std::vector<WireEdge> edges;
  for (VertexId src = 0; src < 40; ++src) {
    const std::uint64_t row = src % 4 == 3
                                  ? 3 * SeenSet::kInitialSlots
                                  : 1 + rng.next_below(200);
    for (std::uint64_t i = 0; i < row; ++i) {
      const VertexId dst = rng.next_below(src % 4 == 3 ? 1u << 20 : 64);
      const auto copies = 1 + rng.next_below(8);
      const bool equal = rng.next_below(2) == 0;
      for (std::uint64_t c = 0; c < copies; ++c) {
        // Weights fall copy by copy, so the lightest copy comes last.
        const float w = equal ? 0.5f : 0.125f * static_cast<float>(copies - c);
        edges.push_back({src, dst, rng.next_below(16) == 0 ? 0.0f : w});
      }
    }
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  return edges;
}

TEST(DedupMinWeight, KeepsTheLightestCopyOfEachEdge) {
  g500::util::SplitMix64 rng(32);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<WireEdge> edges = parallel_edges(rng);
    std::vector<WireEdge> got = edges;
    dedup_min_weight(got);
    sort_by_source_weight(got);
    const std::vector<WireEdge> want = reference_dedup(edges);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::tie(got[i].src, got[i].dst, got[i].weight),
                std::tie(want[i].src, want[i].dst, want[i].weight))
          << "record " << i;
    }
  }
}

TEST(DedupMinWeight, LeavesRowsInCsrOrder) {
  g500::util::SplitMix64 rng(33);
  const std::vector<WireEdge> edges = parallel_edges(rng);
  std::vector<WireEdge> got = edges;
  dedup_min_weight(got);
  const std::vector<WireEdge> want = reference_dedup(edges);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::tie(got[i].src, got[i].dst, got[i].weight),
              std::tie(want[i].src, want[i].dst, want[i].weight))
        << "record " << i;
  }
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

// A splice equals a rebuild of the changed edges, on random rows with
// weight ties (weights are quarters, so equal weights are common and the
// destination breaks them).
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
  }
}

TEST(LocalCsr, SpliceRejectsMalformedChanges) {
  const LocalCsr csr = make_csr();
  const std::vector<EdgeChange> unsorted = {{1, 10, 0.5f, false},
                                            {0, 11, 0.5f, false}};
  const std::vector<EdgeChange> repeated = {{0, 11, 0.5f, false},
                                            {0, 11, 0.2f, true}};
  EXPECT_THROW((void)csr.splice(unsorted), std::invalid_argument);
  EXPECT_THROW((void)csr.splice(repeated), std::invalid_argument);
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
