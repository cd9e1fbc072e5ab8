// Tests for the shared relaxation kernel (core/relax.hpp): the coalescer's
// tie-break and drop count on both wire records, the radix coalescer
// against a sort+unique reference on every record that uses it, the flat
// hub index at hub counts from one to nearly every vertex, and that the
// record the engines ship (12-byte packed or 24-byte wide) changes no
// result bit and no deterministic counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/delta_stepping.hpp"
#include "core/dijkstra.hpp"
#include "core/relax.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

template <typename Msg>
class CoalesceMin : public ::testing::Test {};

using Records = ::testing::Types<core::RelaxRequest, core::PackedRelaxRequest>;
TYPED_TEST_SUITE(CoalesceMin, Records);

TYPED_TEST(CoalesceMin, KeepsLeastDistThenSmallerParentPerTarget) {
  using Msg = TypeParam;
  // Two ranks of eight vertices: rank 1 owns 8..15, so the packed record
  // stores targets 11 and 15 as local 3 and 7.
  const BlockPartition part(16, 2);
  const auto rec = [&](VertexId target, Weight dist, VertexId parent) {
    return core::encode<Msg>(target, part.local(target), dist, parent);
  };
  std::vector<Msg> box = {rec(15, 0.5f, 9), rec(11, 0.25f, 4),
                          rec(15, 0.5f, 2), rec(15, 0.75f, 1),
                          rec(11, 0.25f, 4)};
  EXPECT_EQ(core::coalesce_min(box), 3u);
  ASSERT_EQ(box.size(), 2u);
  EXPECT_EQ(core::decode_target(part, box[0]), 3u);
  EXPECT_EQ(box[0].dist, 0.25f);
  EXPECT_EQ(box[0].parent, 4u);
  EXPECT_EQ(core::decode_target(part, box[1]), 7u);
  EXPECT_EQ(box[1].dist, 0.5f);
  EXPECT_EQ(box[1].parent, 2u);  // equal distance: the smaller parent wins

  std::vector<Msg> single = {rec(8, 1.0f, 0)};
  EXPECT_EQ(core::coalesce_min(single), 0u);
  EXPECT_EQ(single.size(), 1u);
}

// --------------------------------------------- differential coalescing

/// Reference coalescer: sort by (key, less), then keep the first record of
/// each key.
template <typename T, typename Key, typename Less>
std::uint64_t reference_keep_least(std::vector<T>& box, Key key, Less less) {
  if (box.size() < 2) return 0;
  std::sort(box.begin(), box.end(), [&](const T& a, const T& b) {
    if (key(a) != key(b)) return key(a) < key(b);
    return less(a, b);
  });
  const auto last = std::unique(
      box.begin(), box.end(),
      [&](const T& a, const T& b) { return key(a) == key(b); });
  const auto dropped = static_cast<std::uint64_t>(box.end() - last);
  box.erase(last, box.end());
  return dropped;
}

// The per-destination records of BFS (bfs.cpp) and components
// (components.cpp), with the key and order their keep_least calls use.
struct Visit {
  VertexId child;
  VertexId parent;
};
struct LabelMsg {
  VertexId target;
  VertexId label;
};

/// How a record is made, keyed, ordered, compared and coalesced.  Values
/// beside the key come from small ranges, so ties under `less` and
/// byte-identical duplicates occur in random boxes too.
template <typename T>
struct Record;

template <typename Msg>
struct WireRecord {
  static constexpr std::uint64_t kMaxKey =
      std::is_same_v<Msg, core::PackedRelaxRequest>
          ? std::numeric_limits<std::uint32_t>::max()
          : std::numeric_limits<std::uint64_t>::max();
  static Msg make(std::uint64_t key, util::SplitMix64& rng) {
    Msg m{};
    if constexpr (std::is_same_v<Msg, core::PackedRelaxRequest>) {
      m.target_local = static_cast<std::uint32_t>(key);
    } else {
      m.target = key;
    }
    m.parent = static_cast<decltype(m.parent)>(rng.next_below(4));
    m.dist = 0.25f * static_cast<float>(rng.next_below(4));
    return m;
  }
  static auto key(const Msg& m) { return core::target_key(m); }
  static bool less(const Msg& a, const Msg& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.parent < b.parent;
  }
  static auto fields(const Msg& m) {
    return std::make_tuple(key(m), m.parent, m.dist);
  }
  static std::uint64_t coalesce(std::vector<Msg>& box) {
    return core::coalesce_min(box);
  }
};
template <>
struct Record<core::RelaxRequest> : WireRecord<core::RelaxRequest> {};
template <>
struct Record<core::PackedRelaxRequest>
    : WireRecord<core::PackedRelaxRequest> {};

template <>
struct Record<Visit> {
  static constexpr std::uint64_t kMaxKey =
      std::numeric_limits<std::uint64_t>::max();
  static Visit make(std::uint64_t key, util::SplitMix64& rng) {
    return Visit{key, rng.next_below(4)};
  }
  static VertexId key(const Visit& m) { return m.child; }
  static bool less(const Visit& a, const Visit& b) {
    return a.parent < b.parent;
  }
  static auto fields(const Visit& m) {
    return std::make_tuple(m.child, m.parent);
  }
  static std::uint64_t coalesce(std::vector<Visit>& box) {
    return core::keep_least(box, key, less);
  }
};

template <>
struct Record<LabelMsg> {
  static constexpr std::uint64_t kMaxKey =
      std::numeric_limits<std::uint64_t>::max();
  static LabelMsg make(std::uint64_t key, util::SplitMix64& rng) {
    return LabelMsg{key, rng.next_below(4)};
  }
  static VertexId key(const LabelMsg& m) { return m.target; }
  static bool less(const LabelMsg& a, const LabelMsg& b) {
    return a.label < b.label;
  }
  static auto fields(const LabelMsg& m) {
    return std::make_tuple(m.target, m.label);
  }
  static std::uint64_t coalesce(std::vector<LabelMsg>& box) {
    return core::keep_least(box, key, less);
  }
};

enum class Shape { kRandom, kAllEqualKeys, kDuplicates, kSorted, kReversed };

/// A box of n records whose keys span exactly `span` (when n >= 2) above a
/// base chosen so the largest key still fits the record.
template <typename T>
std::vector<T> make_box(std::size_t n, std::uint64_t span, Shape shape,
                        util::SplitMix64& rng) {
  using R = Record<T>;
  span = std::min(span, R::kMaxKey);
  const std::uint64_t base = std::min<std::uint64_t>(1000, R::kMaxKey - span);
  const auto random_key = [&] {
    if (span == std::numeric_limits<std::uint64_t>::max()) {
      return base + rng();
    }
    return base + rng.next_below(span + 1);
  };
  std::vector<T> box;
  if (shape == Shape::kDuplicates) {
    // Every record appears three times, byte for byte.
    while (box.size() < n) {
      const T r = R::make(random_key(), rng);
      for (int copy = 0; copy < 3 && box.size() < n; ++copy) box.push_back(r);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      box.push_back(
          R::make(shape == Shape::kAllEqualKeys ? base : random_key(), rng));
    }
    if (shape != Shape::kAllEqualKeys && n >= 2) {
      box[0] = R::make(base, rng);
      box[1] = R::make(base + span, rng);
    }
  }
  std::shuffle(box.begin(), box.end(), rng);
  if (shape == Shape::kSorted || shape == Shape::kReversed) {
    std::sort(box.begin(), box.end(), [](const T& a, const T& b) {
      if (R::key(a) != R::key(b)) return R::key(a) < R::key(b);
      return R::less(a, b);
    });
    if (shape == Shape::kReversed) std::reverse(box.begin(), box.end());
  }
  return box;
}

template <typename T>
class KeepLeast : public ::testing::Test {};

using CoalescedRecords = ::testing::Types<core::RelaxRequest,
                                          core::PackedRelaxRequest, Visit,
                                          LabelMsg>;
TYPED_TEST_SUITE(KeepLeast, CoalescedRecords);

TYPED_TEST(KeepLeast, MatchesSortUniqueReference) {
  using T = TypeParam;
  using R = Record<T>;
  const std::size_t cutoff = core::kCoalesceSortCutoff;
  const std::vector<std::size_t> sizes = {0,          1,          2,
                                          cutoff - 1, cutoff,     cutoff + 1,
                                          cutoff + 2, 100000};
  const std::vector<std::uint64_t> spans = {
      1, 255, 256, std::uint64_t{1} << 14, std::uint64_t{1} << 33,
      std::numeric_limits<std::uint64_t>::max()};
  const std::vector<Shape> shapes = {Shape::kRandom, Shape::kAllEqualKeys,
                                     Shape::kDuplicates, Shape::kSorted,
                                     Shape::kReversed};
  util::SplitMix64 rng(14);
  for (const std::size_t n : sizes) {
    for (const std::uint64_t span : spans) {
      for (const Shape shape : shapes) {
        std::vector<T> got = make_box<T>(n, span, shape, rng);
        std::vector<T> want = got;
        const std::uint64_t want_dropped =
            reference_keep_least(want, R::key, R::less);
        const std::uint64_t got_dropped = R::coalesce(got);
        const std::string where = "n=" + std::to_string(n) +
                                  " span=" + std::to_string(span) +
                                  " shape=" +
                                  std::to_string(static_cast<int>(shape));
        ASSERT_EQ(got_dropped, want_dropped) << where;
        ASSERT_EQ(got.size(), want.size()) << where;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(R::fields(got[i]), R::fields(want[i]))
              << where << " record " << i;
        }
      }
    }
  }
}

void expect_same_counters(const core::SsspStats& a, const core::SsspStats& b) {
  EXPECT_EQ(a.buckets_processed, b.buckets_processed);
  EXPECT_EQ(a.light_iterations, b.light_iterations);
  EXPECT_EQ(a.heavy_phases, b.heavy_phases);
  EXPECT_EQ(a.push_rounds, b.push_rounds);
  EXPECT_EQ(a.pull_rounds, b.pull_rounds);
  EXPECT_EQ(a.relax_generated, b.relax_generated);
  EXPECT_EQ(a.relax_sent, b.relax_sent);
  EXPECT_EQ(a.relax_received, b.relax_received);
  EXPECT_EQ(a.relax_applied, b.relax_applied);
  EXPECT_EQ(a.fused_local, b.fused_local);
  EXPECT_EQ(a.filtered_hub, b.filtered_hub);
  EXPECT_EQ(a.filtered_coalesce, b.filtered_coalesce);
  EXPECT_EQ(a.frontier_broadcast, b.frontier_broadcast);
  EXPECT_EQ(a.global_collectives, b.global_collectives);
  EXPECT_EQ(a.sub_rounds, b.sub_rounds);
}

TEST(RelaxKernel, PackedAndWideRecordsGiveIdenticalRunsAndCounters) {
  KroneckerParams params;
  params.scale = 10;
  for (const int ranks : {1, 3, 4}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      ASSERT_FALSE(g.hubs.empty());
      const VertexId root = g.hubs.front();
      core::SsspConfig wide;
      wide.compress = false;
      core::SsspStats packed_stats;
      core::SsspStats wide_stats;
      const auto packed =
          core::delta_stepping(comm, g, root, {}, &packed_stats);
      const auto unpacked =
          core::delta_stepping(comm, g, root, wide, &wide_stats);
      EXPECT_EQ(packed.dist, unpacked.dist) << ranks << " ranks";
      EXPECT_EQ(packed.parent, unpacked.parent) << ranks << " ranks";
      expect_same_counters(packed_stats, wide_stats);
      // Every piece of the kernel ran: the hub filter and local fusion,
      // and with remote owners also the coalescer, each acted somewhere.
      EXPECT_GT(comm.allreduce_sum(packed_stats.filtered_hub), 0u);
      EXPECT_GT(comm.allreduce_sum(packed_stats.fused_local), 0u);
      const auto coalesced =
          comm.allreduce_sum(packed_stats.filtered_coalesce);
      if (comm.size() > 1) {
        EXPECT_GT(coalesced, 0u);
      }
    });
  }
}

TEST(RelaxKernel, FlatHubIndexFiltersAtEveryHubCount) {
  // From one hub to 1000 of the 1024 vertices.  Only vertices with an
  // edge can be hubs, so the last case makes every one of them a hub and
  // every candidate hits the table.  The filter may change which parent
  // wins a distance tie, so only distances are compared across hub_cache.
  KroneckerParams params;
  params.scale = 10;
  const EdgeList whole = kronecker_graph(params);
  for (const std::size_t hubs : {std::size_t{1}, std::size_t{16},
                                 std::size_t{1000}}) {
    for (const int ranks : {1, 3, 4}) {
      simmpi::World world(ranks);
      world.run([&](simmpi::Comm& comm) {
        BuildOptions opts;
        opts.hub_count = hubs;
        const DistGraph g = build_kronecker(comm, params, opts);
        std::uint64_t with_edges = 0;
        for (LocalId u = 0; u < g.csr.num_local(); ++u) {
          with_edges += g.csr.degree(u) > 0 ? 1 : 0;
        }
        with_edges = comm.allreduce_sum(with_edges);
        ASSERT_EQ(g.hubs.size(), std::min<std::uint64_t>(hubs, with_edges));
        const VertexId root = core::sample_roots(comm, g, 1, 3).front();
        core::SsspConfig off;
        off.hub_cache = false;
        core::SsspStats stats;
        const auto cached = core::delta_stepping(comm, g, root, {}, &stats);
        const auto uncached = core::delta_stepping(comm, g, root, off);
        const std::string where = std::to_string(hubs) + " hubs, " +
                                  std::to_string(ranks) + " ranks";
        EXPECT_EQ(cached.dist, uncached.dist) << where;
        EXPECT_TRUE(core::validate_sssp(comm, g, root, cached).ok) << where;
        EXPECT_TRUE(core::validate_sssp(comm, g, root, uncached).ok) << where;
        EXPECT_GT(comm.allreduce_sum(stats.filtered_hub), 0u) << where;
        const auto got = core::gather_result(comm, g, cached);
        const auto want = core::dijkstra(whole, root);
        ASSERT_EQ(got.dist.size(), want.dist.size());
        for (std::size_t v = 0; v < want.dist.size(); ++v) {
          EXPECT_FLOAT_EQ(got.dist[v], want.dist[v])
              << where << " vertex " << v;
        }
      });
    }
  }
}

}  // namespace
