// Tests for the in-place radix kernel (util/radix_sort.hpp) against the
// comparison sorts it replaces: radix_sort must equal std::sort by
// (key, less), and keep_least a sort by (key, less) followed by
// unique-by-key, on every record type that uses them — the engines' wire
// records, the BFS and components records and the builder's WireEdge in
// both of its tie orders — over box sizes around the cutoff, key spans
// from 1 to 2^64 − 1 and random, all-equal-key, duplicated, sorted and
// reversed boxes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/relax.hpp"
#include "graph/csr.hpp"
#include "util/radix_sort.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using graph::VertexId;
using graph::WireEdge;

/// Reference sort: std::sort by (R::key, R::less).
template <typename R>
void reference_sort(std::vector<typename R::T>& box) {
  using T = typename R::T;
  std::sort(box.begin(), box.end(), [](const T& a, const T& b) {
    if (R::key(a) != R::key(b)) return R::key(a) < R::key(b);
    return R::less(a, b);
  });
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

// How a record is made, keyed, ordered and compared, and, for the records
// the engines coalesce, coalesced.  Values beside the key come from small
// ranges, so ties under `less` and byte-identical duplicates occur in
// random boxes too.  `less` and the key together order every field, so
// records that tie under both are byte-identical and `fields` can compare
// the outputs.

template <typename Msg>
struct WireRecord {
  using T = Msg;
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

struct VisitRecord {
  using T = Visit;
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
    return util::keep_least(box, key, less);
  }
};

struct LabelRecord {
  using T = LabelMsg;
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
    return util::keep_least(box, key, less);
  }
};

/// The builder's edge keyed by source: ties by (dst, weight), or by
/// (weight, dst) as in the dedup sort, LocalCsr and SourceBlock.
template <bool kByWeight>
struct EdgeRecord {
  using T = WireEdge;
  static constexpr std::uint64_t kMaxKey =
      std::numeric_limits<std::uint64_t>::max();
  static WireEdge make(std::uint64_t key, util::SplitMix64& rng) {
    return WireEdge{key, rng.next_below(4),
                    0.25f * static_cast<float>(rng.next_below(4))};
  }
  static VertexId key(const WireEdge& e) { return e.src; }
  static bool less(const WireEdge& a, const WireEdge& b) {
    if constexpr (kByWeight) {
      if (a.weight != b.weight) return a.weight < b.weight;
      return a.dst < b.dst;
    } else {
      if (a.dst != b.dst) return a.dst < b.dst;
      return a.weight < b.weight;
    }
  }
  static auto fields(const WireEdge& e) {
    return std::make_tuple(e.src, e.dst, e.weight);
  }
};

/// kFirstPairSwapped and kLastPairSwapped are sorted boxes with one
/// inversion, at the first or the last pair of unequal neighbours, which
/// radix_sort's ordered-input check must find.
enum class Shape {
  kRandom,
  kAllEqualKeys,
  kDuplicates,
  kSorted,
  kReversed,
  kFirstPairSwapped,
  kLastPairSwapped
};

/// A box of n records whose keys span exactly `span` (when n >= 2) above a
/// base chosen so the largest key still fits the record.
template <typename R>
std::vector<typename R::T> make_box(std::size_t n, std::uint64_t span,
                                    Shape shape, util::SplitMix64& rng) {
  using T = typename R::T;
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
  if (shape != Shape::kRandom && shape != Shape::kAllEqualKeys &&
      shape != Shape::kDuplicates) {
    reference_sort<R>(box);
    if (shape == Shape::kReversed) std::reverse(box.begin(), box.end());
  }
  const auto differ = [](const T& a, const T& b) {
    return R::fields(a) != R::fields(b);
  };
  if (shape == Shape::kFirstPairSwapped) {
    const auto it = std::adjacent_find(box.begin(), box.end(), differ);
    if (it != box.end()) std::iter_swap(it, it + 1);
  }
  if (shape == Shape::kLastPairSwapped) {
    const auto it = std::adjacent_find(box.rbegin(), box.rend(), differ);
    if (it != box.rend()) std::iter_swap(it, it + 1);
  }
  return box;
}

template <typename R>
void expect_same_records(const std::vector<typename R::T>& got,
                         const std::vector<typename R::T>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  const auto diff = std::mismatch(
      got.begin(), got.end(), want.begin(),
      [](const auto& a, const auto& b) { return R::fields(a) == R::fields(b); });
  ASSERT_TRUE(diff.first == got.end())
      << where << ": first difference at record " << (diff.first - got.begin());
}

template <typename R>
class RadixKernel : public ::testing::Test {};

using Records =
    ::testing::Types<WireRecord<core::RelaxRequest>,
                     WireRecord<core::PackedRelaxRequest>, VisitRecord,
                     LabelRecord, EdgeRecord<false>, EdgeRecord<true>>;
TYPED_TEST_SUITE(RadixKernel, Records);

// Every box is checked against one reference sort: radix_sort must equal
// it, and on the records the engines coalesce, keep_least must equal it
// followed by unique-by-key, dropped count included.
TYPED_TEST(RadixKernel, MatchesComparatorReference) {
  using R = TypeParam;
  using T = typename R::T;
  const std::size_t cutoff = util::kRadixSortCutoff;
  const std::vector<std::size_t> sizes = {0,          1,          2,
                                          cutoff - 1, cutoff,     cutoff + 1,
                                          cutoff + 2, 100000};
  const std::vector<std::uint64_t> spans = {
      1, 255, 256, std::uint64_t{1} << 14, std::uint64_t{1} << 33,
      std::numeric_limits<std::uint64_t>::max()};
  const std::vector<Shape> shapes = {
      Shape::kRandom,          Shape::kAllEqualKeys, Shape::kDuplicates,
      Shape::kSorted,          Shape::kReversed,     Shape::kFirstPairSwapped,
      Shape::kLastPairSwapped};
  util::SplitMix64 rng(14);
  for (const std::size_t n : sizes) {
    for (const std::uint64_t span : spans) {
      for (const Shape shape : shapes) {
        const std::vector<T> box = make_box<R>(n, span, shape, rng);
        const std::string where =
            "n=" + std::to_string(n) + " span=" + std::to_string(span) +
            " shape=" + std::to_string(static_cast<int>(shape));
        std::vector<T> want = box;
        reference_sort<R>(want);
        std::vector<T> sorted = box;
        util::radix_sort(
            sorted.begin(), sorted.end(), [](const T& x) { return R::key(x); },
            [](const T& a, const T& b) { return R::less(a, b); });
        ASSERT_NO_FATAL_FAILURE(
            expect_same_records<R>(sorted, want, where + " radix_sort"));
        if constexpr (requires(std::vector<T>& b) { R::coalesce(b); }) {
          std::vector<T> kept = box;
          const std::uint64_t dropped = R::coalesce(kept);
          const auto last = std::unique(
              want.begin(), want.end(),
              [](const T& a, const T& b) { return R::key(a) == R::key(b); });
          ASSERT_EQ(dropped, static_cast<std::uint64_t>(want.end() - last))
              << where;
          want.erase(last, want.end());
          ASSERT_NO_FATAL_FAILURE(
              expect_same_records<R>(kept, want, where + " keep_least"));
        }
      }
    }
  }
}

}  // namespace
