// Unit and property tests for the Graph 500 Kronecker generator.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <stdexcept>

#include "graph/kronecker.hpp"
#include "util/random.hpp"

namespace {

using namespace g500::graph;

TEST(Scramble, IsBijectiveExhaustivelyAtSmallScales) {
  for (int scale : {1, 2, 3, 5, 8, 12}) {
    std::set<VertexId> images;
    const VertexId n = VertexId{1} << scale;
    for (VertexId v = 0; v < n; ++v) {
      const VertexId s = scramble_vertex(v, scale, 2, 3);
      EXPECT_LT(s, n) << "scale " << scale;
      EXPECT_TRUE(images.insert(s).second)
          << "collision at scale " << scale << " v=" << v;
    }
    EXPECT_EQ(images.size(), n);
  }
}

TEST(Scramble, UnscrambleInverts) {
  for (int scale : {1, 2, 7, 13, 20, 31, 43}) {
    for (VertexId v : {VertexId{0}, VertexId{1}, VertexId{12345} %
                                                     (VertexId{1} << scale)}) {
      const VertexId s = scramble_vertex(v, scale, 2, 3);
      EXPECT_EQ(unscramble_vertex(s, scale, 2, 3), v)
          << "scale " << scale << " v " << v;
    }
  }
}

TEST(Scramble, DependsOnSeeds) {
  int moved = 0;
  for (VertexId v = 0; v < 256; ++v) {
    if (scramble_vertex(v, 8, 2, 3) != scramble_vertex(v, 8, 5, 7)) ++moved;
  }
  EXPECT_GT(moved, 200);
}

TEST(Kronecker, EdgeIsDeterministic) {
  KroneckerParams p;
  p.scale = 12;
  for (std::uint64_t i : {0ULL, 1ULL, 999ULL, 65535ULL}) {
    const Edge a = kronecker_edge(p, i);
    const Edge b = kronecker_edge(p, i);
    EXPECT_EQ(a, b);
  }
}

TEST(Kronecker, EndpointsInRange) {
  KroneckerParams p;
  p.scale = 10;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const Edge e = kronecker_edge(p, i);
    EXPECT_LT(e.src, p.num_vertices());
    EXPECT_LT(e.dst, p.num_vertices());
  }
}

TEST(Kronecker, WeightsAreInUnitIntervalAndPositive) {
  KroneckerParams p;
  p.scale = 10;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const Edge e = kronecker_edge(p, i);
    EXPECT_GT(e.weight, 0.0f);
    EXPECT_LT(e.weight, 1.0f);
  }
}

TEST(Kronecker, SlicesTileTheStream) {
  KroneckerParams p;
  p.scale = 8;
  p.edgefactor = 4;
  const auto whole = kronecker_slice(p, 0, p.num_edges());
  const auto first = kronecker_slice(p, 0, 100);
  const auto second = kronecker_slice(p, 100, p.num_edges());
  ASSERT_EQ(first.size() + second.size(), whole.size());
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], whole[i]);
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i], whole[i + 100]);
  }
}

TEST(Kronecker, GraphHasDeclaredShape) {
  KroneckerParams p;
  p.scale = 9;
  p.edgefactor = 8;
  const EdgeList g = kronecker_graph(p);
  EXPECT_EQ(g.num_vertices, VertexId{512});
  EXPECT_EQ(g.num_edges(), 8u << 9);
}

TEST(Kronecker, DegreeDistributionIsSkewed) {
  // Power-law-ish: the max degree should far exceed the mean.
  KroneckerParams p;
  p.scale = 12;
  const EdgeList g = kronecker_graph(p);
  std::map<VertexId, std::uint64_t> degree;
  for (const auto& e : g.edges) {
    ++degree[e.src];
    ++degree[e.dst];
  }
  std::uint64_t max_degree = 0;
  for (const auto& [v, d] : degree) max_degree = std::max(max_degree, d);
  const double mean = 2.0 * static_cast<double>(g.num_edges()) /
                      static_cast<double>(p.num_vertices());
  EXPECT_GT(static_cast<double>(max_degree), 10.0 * mean);
}

TEST(Kronecker, ScrambleSpreadsHubs) {
  // Without scrambling, low-id vertices dominate; the scramble must move
  // the heaviest vertex away from id 0 with overwhelming probability.
  KroneckerParams p;
  p.scale = 12;
  std::map<VertexId, std::uint64_t> degree;
  for (std::uint64_t i = 0; i < p.num_edges(); ++i) {
    const Edge e = kronecker_edge(p, i);
    ++degree[e.src];
  }
  VertexId heaviest = 0;
  std::uint64_t best = 0;
  for (const auto& [v, d] : degree) {
    if (d > best) {
      best = d;
      heaviest = v;
    }
  }
  EXPECT_NE(heaviest, VertexId{0});
}

TEST(Kronecker, DifferentSeedsDifferentGraphs) {
  KroneckerParams a;
  a.scale = 8;
  KroneckerParams b = a;
  b.seed1 = 77;
  int different = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (!(kronecker_edge(a, i) == kronecker_edge(b, i))) ++different;
  }
  EXPECT_GT(different, 90);
}

/// The first `count` edges of the stream folded into one hash: source,
/// destination and the weight's bits, in stream order.
std::uint64_t stream_digest(const KroneckerParams& p, std::uint64_t count) {
  std::uint64_t h = 0;
  for (const Edge& e : kronecker_slice(p, 0, count)) {
    h = g500::util::hash64(h, e.src, e.dst);
    h = g500::util::hash64(h, std::bit_cast<std::uint32_t>(e.weight));
  }
  return h;
}

TEST(Kronecker, GoldenStreamDigests) {
  // Pins the generated edges: every graph, digest and exact counter in the
  // repository rests on this stream, so a rewrite must reproduce it bit
  // for bit.  Scale 41 puts both endpoints above 32 bits and gives the
  // scramble unequal halves.
  struct Case {
    int scale;
    std::uint64_t seed1, seed2, digest;
  };
  const Case cases[] = {
      {16, 2, 3, 0xa473cc49d1422679ULL},
      {16, 0x9e3779b97f4a7c15ULL, 12345, 0xf2235dd6afcce140ULL},
      {41, 2, 3, 0x740493162199394bULL},
      {41, 0x9e3779b97f4a7c15ULL, 12345, 0x38afef8acd7d8a70ULL},
  };
  for (const Case& c : cases) {
    KroneckerParams p;
    p.scale = c.scale;
    p.seed1 = c.seed1;
    p.seed2 = c.seed2;
    EXPECT_EQ(stream_digest(p, 4096), c.digest)
        << "scale " << c.scale << " seeds " << c.seed1 << "," << c.seed2;
  }
}

TEST(Kronecker, SliceMatchesEdgeByEdge) {
  // Ranges of lengths that are not multiples of any batch width, at both
  // ends of the stream, at the smallest scales, an odd one and the largest.
  for (const int scale : {1, 2, 13, 62}) {
    KroneckerParams p;
    p.scale = scale;
    p.edgefactor = scale == 62 ? 1 : 16;
    p.seed1 = 0x5eed;
    p.seed2 = static_cast<std::uint64_t>(scale);
    const std::uint64_t m = p.num_edges();
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {0, 13}, {3, 4}, {5, 30}, {m - 11, m}, {m / 2 - 1, m / 2 + 6}};
    for (const auto& [b, e] : ranges) {
      const std::vector<Edge> slice = kronecker_slice(p, b, e);
      ASSERT_EQ(slice.size(), e - b);
      for (std::uint64_t i = b; i < e; ++i) {
        EXPECT_EQ(slice[i - b], kronecker_edge(p, i))
            << "scale " << scale << " edge " << i;
      }
    }
  }
}

TEST(Kronecker, RejectsBadParameters) {
  KroneckerParams p;
  p.scale = 0;
  EXPECT_THROW((void)kronecker_edge(p, 0), std::invalid_argument);
  p.scale = 63;
  EXPECT_THROW((void)kronecker_edge(p, 0), std::invalid_argument);
  // 16 << 60 wraps to 0 edges; 3 << 62 is the most that fits 64 bits.
  p.scale = 60;
  EXPECT_THROW((void)kronecker_slice(p, 0, 0), std::invalid_argument);
  p.scale = 62;
  p.edgefactor = 4;
  EXPECT_THROW((void)kronecker_slice(p, 0, 1), std::invalid_argument);
  p.edgefactor = 3;
  EXPECT_EQ(kronecker_slice(p, 0, 1).size(), 1u);
  // A non-positive edgefactor is an empty or wrapped stream.
  p.scale = 10;
  p.edgefactor = 0;
  EXPECT_THROW((void)kronecker_graph(p), std::invalid_argument);
  p.edgefactor = -1;
  EXPECT_THROW((void)kronecker_slice(p, 0, 10), std::invalid_argument);
  EXPECT_THROW((void)kronecker_edge(p, 0), std::invalid_argument);
  EXPECT_THROW(p.check(), std::invalid_argument);
}

TEST(Kronecker, SliceRangeChecked) {
  KroneckerParams p;
  p.scale = 8;
  EXPECT_THROW((void)kronecker_slice(p, 10, 5), std::out_of_range);
  EXPECT_THROW((void)kronecker_slice(p, 0, p.num_edges() + 1),
               std::out_of_range);
}

TEST(Kronecker, UnscrambledGeneratorConcentratesLowIds) {
  // Sanity check of the initiator math: mapped back through the scramble,
  // quadrant A dominance biases endpoints toward small ids.
  KroneckerParams p;
  p.scale = 12;
  std::uint64_t low = 0;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const Edge e = kronecker_edge(p, i);
    const VertexId src = unscramble_vertex(e.src, p.scale, p.seed1, p.seed2);
    if (src < p.num_vertices() / 4) ++low;
    ++total;
  }
  // Uniform endpoints would put ~25% in the low quarter; RMAT puts far more.
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(total), 0.45);
}

}  // namespace
