// In-place MSD radix sort (American flag sort) by an unsigned integer key.
//
// Two entry points share one partition step:
//
//   * radix_sort — order a range ascending by key, ties broken by a
//     comparator.  Graph construction sorts its edges with it: the
//     builders' dedup and the out-of-core sorter, then LocalCsr and
//     SourceBlock, which find the deduplicated rows already in order.
//   * keep_least — keep only the least record of each key, ascending by
//     key: the coalescer behind the SSSP, BFS and components engines.
//
// Both take the least and greatest key once, then split the range in place
// on 8-bit digits of key − least key, top digit first.  The top digit takes
// the span's highest (up to 8) significant bits, so no shift reaches 64,
// and the lowest digit takes what is left.  A digit pass counts its
// buckets, then runs swap passes in which every swap moves one record into
// its bucket for good; the swaps of a pass do not wait on each other,
// unlike a cycle-leader chain, so their loads overlap.  Small buckets are
// finished by a comparison sort.  The only scratch memory is a fixed stack
// frame per digit.
//
// Neither is stable.  Records that tie under both key and comparator may
// come out in any order, exactly as under std::sort, so callers make such
// records interchangeable in what they build from the result.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <vector>

namespace g500::util {

/// A bucket of at most this many records that still spans more than one
/// digit is finished by a comparison sort instead of further digits: by
/// (key, less) in radix_sort, by key and then one pass in keep_least.
inline constexpr std::size_t kRadixSortCutoff = 128;

namespace detail {

/// Reorder [first, last) in place so the records fall into 256 buckets by
/// the 8-bit digit at `shift` of key(x) − base, in ascending digit order;
/// return one past the end of each bucket, counted from `first`.
template <typename T, typename Key>
std::array<std::size_t, 256> partition_by_digit(T* first, T* last,
                                                const Key& key,
                                                std::uint64_t base,
                                                int shift) {
  const auto digit = [&](const T& x) {
    return static_cast<std::size_t>(
        ((static_cast<std::uint64_t>(key(x)) - base) >> shift) & 0xFF);
  };
  // end[d] is one past bucket d; next[d] is the first slot of bucket d not
  // yet known to hold a record of digit d.
  std::array<std::size_t, 256> end{};
  for (const T* p = first; p != last; ++p) ++end[digit(*p)];
  std::array<std::size_t, 256> next{};
  for (std::size_t d = 0, sum = 0; d < 256; ++d) {
    next[d] = sum;
    sum += end[d];
    end[d] = sum;
  }
  // Each swap moves one record into its bucket for good, so all passes
  // together make at most one swap per record.
  for (bool unplaced = true; unplaced;) {
    unplaced = false;
    for (std::size_t b = 0; b < 256; ++b) {
      for (std::size_t i = next[b]; i < end[b]; ++i) {
        std::swap(first[i], first[next[digit(first[i])]++]);
      }
      unplaced = unplaced || next[b] < end[b];
    }
  }
  return end;
}

/// Sort [first, last), whose keys may differ in bits [0, shift + 8) of
/// key(x) − base, by (key, less).
template <typename T, typename Key, typename Less>
void radix_sort_from(T* first, T* last, const Key& key, const Less& less,
                     std::uint64_t base, int shift) {
  if (static_cast<std::size_t>(last - first) <= kRadixSortCutoff) {
    std::sort(first, last, [&](const T& a, const T& b) {
      const auto ka = key(a);
      const auto kb = key(b);
      return ka != kb ? ka < kb : less(a, b);
    });
    return;
  }
  const std::array<std::size_t, 256> end =
      partition_by_digit(first, last, key, base, shift);
  std::size_t begin = 0;
  for (std::size_t d = 0; d < 256; ++d) {
    if (end[d] - begin > 1) {
      if (shift == 0) {
        // The digits are used up: the bucket holds a single key.
        std::sort(first + begin, first + end[d], less);
      } else {
        radix_sort_from(first + begin, first + end[d], key, less, base,
                        std::max(shift - 8, 0));
      }
    }
    begin = end[d];
  }
}

/// Write the least record of each key in [first, last), in ascending key
/// order, from `out` on (out <= first); return the end of what was
/// written.  Every key in the range has the same key(x) − base apart from
/// its lowest `width` bits, so that digit names the key: one pass keeps
/// the least record per digit.
template <typename T, typename Key, typename Less>
T* keep_least_per_digit(const T* first, const T* last, T* out,
                        const Key& key, const Less& less, std::uint64_t base,
                        int width) {
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  // Bit d of seen says least[d] holds a record; every read of least[d]
  // checks it first.  least is left uninitialized: zeroing it would cost
  // more than the pass when buckets hold a few records each.
  std::array<T, 256> least;
  std::array<std::uint64_t, 4> seen{};
  for (const T* p = first; p != last; ++p) {
    const auto d = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key(*p)) - base) & mask);
    const std::uint64_t bit = std::uint64_t{1} << (d % 64);
    if (!(seen[d / 64] & bit) || less(*p, least[d])) {
      least[d] = *p;
      seen[d / 64] |= bit;
    }
  }
  for (std::size_t w = 0; w < seen.size(); ++w) {
    for (std::uint64_t m = seen[w]; m != 0; m &= m - 1) {
      *out++ = least[w * 64 + static_cast<std::size_t>(std::countr_zero(m))];
    }
  }
  return out;
}

/// keep_least_per_digit for a range whose keys may differ in bits
/// [0, shift + 8) of key(x) − base, shift > 0: partition on the digit at
/// `shift`, then each bucket in turn.  Buckets of at most kRadixSortCutoff
/// records are finished by a comparison sort instead.
template <typename T, typename Key, typename Less>
T* keep_least_radix(T* first, T* last, T* out, const Key& key,
                    const Less& less, std::uint64_t base, int shift) {
  if (static_cast<std::size_t>(last - first) <= kRadixSortCutoff) {
    std::sort(first, last,
              [&](const T& a, const T& b) { return key(a) < key(b); });
    for (T* p = first; p != last;) {
      T* least = p;
      T* q = p + 1;
      for (; q != last && key(*q) == key(*p); ++q) {
        if (less(*q, *least)) least = q;
      }
      *out++ = *least;
      p = q;
    }
    return out;
  }
  const std::array<std::size_t, 256> end =
      partition_by_digit(first, last, key, base, shift);
  const int lower = std::max(shift - 8, 0);
  std::size_t begin = 0;
  for (std::size_t d = 0; d < 256; ++d) {
    if (end[d] - begin == 1) {
      *out++ = first[begin];
    } else if (end[d] > begin && lower == 0) {
      out = keep_least_per_digit(first + begin, first + end[d], out, key,
                                 less, base, shift);
    } else if (end[d] > begin) {
      out = keep_least_radix(first + begin, first + end[d], out, key, less,
                             base, lower);
    }
    begin = end[d];
  }
  return out;
}

/// True when [first, last) is already in (key, less) order.  Stops at the
/// first inversion, so an unordered range pays for a comparison or two.
template <typename T, typename Key, typename Less>
bool in_order(const T* first, const T* last, const Key& key,
              const Less& less) {
  for (const T* p = first + 1; p < last; ++p) {
    const auto kp = key(p[-1]);
    const auto kq = key(*p);
    if (kq < kp || (kq == kp && less(*p, p[-1]))) return false;
  }
  return true;
}

/// Least and greatest key(x) over the non-empty [first, last).
template <typename T, typename Key>
std::array<std::uint64_t, 2> key_bounds(const T* first, const T* last,
                                        const Key& key) {
  auto lo = static_cast<std::uint64_t>(key(*first));
  auto hi = lo;
  for (const T* p = first; p != last; ++p) {
    lo = std::min(lo, static_cast<std::uint64_t>(key(*p)));
    hi = std::max(hi, static_cast<std::uint64_t>(key(*p)));
  }
  return {lo, hi};
}

}  // namespace detail

/// Sort [first, last) ascending by key(x), an unsigned integer, breaking
/// ties with `less`, a strict weak order.  The result equals std::sort by
/// (key, less).  A range already in that order costs one read pass.
/// Otherwise linear time in the key digits, plus comparison sorts of
/// buckets of at most kRadixSortCutoff records and of single-key buckets.
template <std::contiguous_iterator It, typename Key, typename Less>
void radix_sort(It first, It last, Key key, Less less) {
  using T = std::iter_value_t<It>;
  static_assert(
      std::is_unsigned_v<std::remove_cvref_t<decltype(key(*first))>>);
  if (last - first < 2) return;
  T* const begin = std::to_address(first);
  T* const end = begin + (last - first);
  if (detail::in_order(begin, end, key, less)) return;
  const auto [lo, hi] = detail::key_bounds(begin, end, key);
  const int bits = std::bit_width(hi - lo);
  detail::radix_sort_from(begin, end, key, less, lo, std::max(bits - 8, 0));
}

/// Keep only the least record — by `less` — of each key(record) in `box`,
/// ordered by ascending key.  Returns how many records were dropped.
/// `key` returns an unsigned integer; `less` must order records of equal
/// key totally, and records it ties must be byte-identical, so the
/// survivors (and their order) are deterministic.  Linear time.
template <typename T, typename Key, typename Less>
std::uint64_t keep_least(std::vector<T>& box, Key key, Less less) {
  static_assert(
      std::is_unsigned_v<std::remove_cvref_t<decltype(key(box.front()))>>);
  if (box.size() < 2) return 0;
  T* const first = box.data();
  T* const last = first + box.size();
  const auto [lo, hi] = detail::key_bounds(first, last, key);
  const int bits = std::bit_width(hi - lo);
  const T* const kept =
      bits <= 8 ? detail::keep_least_per_digit(first, last, first, key, less,
                                                lo, bits)
                : detail::keep_least_radix(first, last, first, key, less, lo,
                                           bits - 8);
  const auto dropped = static_cast<std::uint64_t>(last - kept);
  box.erase(box.begin() + (kept - first), box.end());
  return dropped;
}

}  // namespace g500::util
