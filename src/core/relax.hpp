// The relaxation kernel every distributed SSSP engine shares.
//
// An engine turns edge scans into candidates "target may be reachable at
// `dist` via `parent`" and delivers each to the target's owner.  The pieces
// of that path live here once:
//
//   * keep_least / coalesce_min — per-destination coalescing: keep the
//     least record per key in linear time and no scratch memory beyond a
//     fixed stack frame per digit.  An in-place MSD radix sort (American
//     flag sort) on key − min key in 8-bit digits splits the box into
//     buckets of equal high digits.  A bucket down to its last digit is
//     reduced in one pass, since that digit names the key; a bucket of at
//     most kCoalesceSortCutoff records is finished by a comparison sort
//     and one pass.  The survivors, their ascending-key order and the
//     dropped count equal a full sort by (key, less) followed by
//     unique-by-key.  Which of several tied records survives cannot show:
//     records of equal key that tie under `less` are byte-identical in
//     every record type the engines coalesce, so neither sort needs to be
//     stable;
//   * the wire codec — the 24-byte RelaxRequest or the 12-byte
//     PackedRelaxRequest (target pre-localized to the owner's index space),
//     a compile-time record parameter that with_record picks at run time;
//   * Router — hub filter, then local fusion, then the caller's sink; it
//     owns the hub index (a flat open-addressing table with linear
//     probing) and mirror, and computes each candidate's owner and
//     owner-local index once;
//   * exchange — one bulk-synchronous round: coalesce, flat or two-level
//     alltoallv, decode, apply.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/hierarchical.hpp"

namespace g500::core {

/// Radix buckets of at most this many records that still span more than
/// one digit are ordered by a comparison sort instead of further digits.
inline constexpr std::size_t kCoalesceSortCutoff = 128;

namespace detail {

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
/// [0, shift + 8) of key(x) − base, shift > 0: an in-place MSD radix sort
/// (American flag sort) on the 8-bit digit at `shift`, then each bucket in
/// turn.  Buckets of at most kCoalesceSortCutoff records are finished by a
/// comparison sort instead.
template <typename T, typename Key, typename Less>
T* keep_least_radix(T* first, T* last, T* out, const Key& key,
                    const Less& less, std::uint64_t base, int shift) {
  if (static_cast<std::size_t>(last - first) <= kCoalesceSortCutoff) {
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
  // together make at most one swap per record.  The swaps of a pass do not
  // wait on each other, unlike a cycle-leader chain, so their loads
  // overlap.
  for (bool unplaced = true; unplaced;) {
    unplaced = false;
    for (std::size_t b = 0; b < 256; ++b) {
      for (std::size_t i = next[b]; i < end[b]; ++i) {
        std::swap(first[i], first[next[digit(first[i])]++]);
      }
      unplaced = unplaced || next[b] < end[b];
    }
  }
  const int lower = shift > 8 ? shift - 8 : 0;
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

}  // namespace detail

/// Keep only the least record — by `less` — of each key(record) in `box`,
/// ordered by ascending key.  Returns how many records were dropped.
/// `key` returns an unsigned integer; `less` must order records of equal
/// key totally, and records it ties must be byte-identical, so the
/// survivors (and their order) are deterministic.  Linear time; no scratch
/// memory beyond a fixed-size stack frame per digit.
template <typename T, typename Key, typename Less>
std::uint64_t keep_least(std::vector<T>& box, Key key, Less less) {
  static_assert(
      std::is_unsigned_v<std::remove_cvref_t<decltype(key(box.front()))>>);
  if (box.size() < 2) return 0;
  auto lo = static_cast<std::uint64_t>(key(box.front()));
  auto hi = lo;
  for (const T& x : box) {
    lo = std::min(lo, static_cast<std::uint64_t>(key(x)));
    hi = std::max(hi, static_cast<std::uint64_t>(key(x)));
  }
  // The top digit takes the span's highest (up to 8) significant bits, so
  // no shift reaches 64; the lowest digit takes what is left.
  const int bits = std::bit_width(hi - lo);
  T* const first = box.data();
  T* const last = first + box.size();
  const T* const kept =
      bits <= 8 ? detail::keep_least_per_digit(first, last, first, key, less,
                                                lo, bits)
                : detail::keep_least_radix(first, last, first, key, less, lo,
                                           bits - 8);
  const auto dropped = static_cast<std::uint64_t>(last - kept);
  box.erase(box.begin() + (kept - first), box.end());
  return dropped;
}

// ------------------------------------------------------------- wire codec

/// Target of a record as its sender wrote it.  Every record in one
/// destination's box has the same owner, so the global and owner-local
/// forms sort identically.
inline graph::VertexId target_key(const RelaxRequest& m) { return m.target; }
inline graph::VertexId target_key(const PackedRelaxRequest& m) {
  return m.target_local;
}

/// Encode a candidate for the owner of `target`, where `local` is the
/// target's index on that owner.
template <typename Msg>
Msg encode(graph::VertexId target, graph::LocalId local, graph::Weight dist,
           graph::VertexId parent) {
  if constexpr (std::is_same_v<Msg, PackedRelaxRequest>) {
    return PackedRelaxRequest{local, static_cast<std::uint32_t>(parent),
                              dist};
  } else {
    return RelaxRequest{target, parent, dist};
  }
}

/// Owner-local target of a record this rank received.
inline graph::LocalId decode_target(const graph::BlockPartition& part,
                                    const RelaxRequest& m) {
  return part.local(m.target);
}
inline graph::LocalId decode_target(const graph::BlockPartition&,
                                    const PackedRelaxRequest& m) {
  return static_cast<graph::LocalId>(m.target_local);
}

/// Call f(Msg{}) with the record `config` selects: PackedRelaxRequest when
/// compress is on and every vertex id fits in 32 bits, else RelaxRequest.
template <typename F>
auto with_record(const SsspConfig& config, graph::VertexId num_vertices,
                 F&& f) {
  if (config.compress &&
      num_vertices <= std::numeric_limits<std::uint32_t>::max()) {
    return f(PackedRelaxRequest{});
  }
  return f(RelaxRequest{});
}

/// Coalesce one destination's box: keep the least (dist, parent) candidate
/// per target, which subsumes the rest at the owner, and return how many
/// were dropped.
template <typename Msg>
std::uint64_t coalesce_min(std::vector<Msg>& box) {
  return keep_least(
      box, [](const Msg& m) { return target_key(m); },
      [](const Msg& a, const Msg& b) {
        if (a.dist != b.dist) return a.dist < b.dist;
        return a.parent < b.parent;
      });
}

// ----------------------------------------------------------------- router

/// Routes one rank's generated candidates: the hub filter drops those that
/// cannot improve, local fusion applies owned ones in place, and the rest
/// are encoded for the caller's sink (an outbox or an aggregator).
template <typename Msg>
class Router {
 public:
  /// `dist` is this rank's owned distance slice; the router reads it for
  /// owned hubs, so it must outlive the router.  Hub caching needs
  /// g.hubs; without hubs it is off.
  Router(const graph::DistGraph& g, int rank,
         const std::vector<graph::Weight>& dist, bool hub_cache,
         bool local_fusion, SsspStats& stats)
      : g_(g),
        rank_(rank),
        dist_(dist),
        local_fusion_(local_fusion),
        stats_(stats) {
    for (int r = 0; r < g.part.num_ranks(); ++r) {
      block_begin_.push_back(g.part.begin(r));
    }
    if (!hub_cache || g.hubs.empty()) return;
    mirror_.assign(g.hubs.size(), graph::kInfDistance);
    // Open addressing with linear probing in a power-of-two table of four
    // slots per hub: at that load a lookup that misses, which most do,
    // usually stops at its first slot.  A slot holding kNoVertex is empty.
    // The table has at least four slots, so the hash shift is at most 62.
    slots_.assign(std::bit_ceil(4 * g.hubs.size()),
                  HubSlot{graph::kNoVertex, 0});
    shift_ = 64 - std::countr_zero(slots_.size());
    for (std::size_t i = 0; i < g.hubs.size(); ++i) {
      std::size_t s = home(g.hubs[i]);
      while (slots_[s].hub != graph::kNoVertex) s = (s + 1) & mask();
      slots_[s] = HubSlot{g.hubs[i], static_cast<std::uint32_t>(i)};
    }
  }

  /// Route the candidate "`target` at `cand` via `via`": counted as
  /// generated, then dropped by the hub filter, passed to
  /// fuse(local, cand, via) when owned and fusion is on, or passed to
  /// sink(owner, record).
  template <typename Fuse, typename Sink>
  void route(graph::VertexId target, graph::Weight cand, graph::VertexId via,
             Fuse&& fuse, Sink&& sink) {
    ++stats_.relax_generated;
    // owner() range-checks target: the only bounds check a CSR
    // destination gets.
    const int owner = g_.part.owner(target);
    const auto local = static_cast<graph::LocalId>(
        target - block_begin_[static_cast<std::size_t>(owner)]);
    const bool is_local = owner == rank_;

    if (!slots_.empty()) {
      const std::uint32_t hub = hub_index(target);
      if (hub != kNotHub) {
        // The filter reference must never undercut the owner's
        // authoritative distance, or improving candidates would be
        // dropped; mirrors only carry values that were (or will be this
        // round) delivered to the owner, so mirror >= authoritative always
        // holds.
        const graph::Weight ref = is_local ? dist_[local] : mirror_[hub];
        if (!(cand < ref)) {
          ++stats_.filtered_hub;
          return;
        }
        if (!is_local) mirror_[hub] = cand;
      }
    }

    if (is_local && local_fusion_) {
      fuse(local, cand, via);
      ++stats_.fused_local;
      return;
    }
    sink(owner, encode<Msg>(target, local, cand, via));
  }

  /// Mirrored tentative distance of g.hubs[i] (empty when hub caching is
  /// off).  Checkpoints save and restore it with the run.
  std::vector<graph::Weight>& mirror() { return mirror_; }

  /// Tighten every mirror entry to its owner's authoritative distance:
  /// one H-length min-allreduce.  Collective; a no-op without a mirror.
  void tighten(simmpi::Comm& comm) {
    if (mirror_.empty()) return;
    std::vector<graph::Weight> contribution(mirror_.size());
    for (std::size_t i = 0; i < g_.hubs.size(); ++i) {
      const graph::VertexId h = g_.hubs[i];
      contribution[i] = g_.part.owner(h) == rank_ ? dist_[g_.part.local(h)]
                                                   : mirror_[i];
    }
    mirror_ = comm.allreduce_vec<graph::Weight>(
        contribution,
        [](graph::Weight a, graph::Weight b) { return b < a ? b : a; });
  }

 private:
  struct HubSlot {
    graph::VertexId hub;
    std::uint32_t index;  // into g.hubs and mirror_
  };
  static constexpr std::uint32_t kNotHub =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  /// First probe slot of v: the top bits of a multiplicative hash.
  [[nodiscard]] std::size_t home(graph::VertexId v) const {
    return static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Position of v in g.hubs, or kNotHub.
  [[nodiscard]] std::uint32_t hub_index(graph::VertexId v) const {
    for (std::size_t s = home(v);; s = (s + 1) & mask()) {
      if (slots_[s].hub == v) return slots_[s].index;
      if (slots_[s].hub == graph::kNoVertex) return kNotHub;
    }
  }

  const graph::DistGraph& g_;
  int rank_;
  const std::vector<graph::Weight>& dist_;
  bool local_fusion_;
  SsspStats& stats_;
  std::vector<graph::VertexId> block_begin_;  // part.begin(r) per rank r
  std::vector<HubSlot> slots_;                // empty: hub cache off
  int shift_ = 0;
  std::vector<graph::Weight> mirror_;
};

// --------------------------------------------------------------- exchange

/// One bulk-synchronous exchange round over `outbox` (one box per rank):
/// coalesce each box when `coalesce`, ship them flat or through the
/// two-level schedule (`group` > 1), call apply(local, dist, parent) for
/// every record received, and clear the boxes.  Counts filtered_coalesce,
/// relax_sent and relax_received.  Collective.
template <typename Msg, typename Apply>
void exchange(simmpi::Comm& comm, const graph::BlockPartition& part,
              std::vector<std::vector<Msg>>& outbox, bool coalesce, int group,
              SsspStats& stats, Apply&& apply) {
  for (auto& box : outbox) {
    if (coalesce) stats.filtered_coalesce += coalesce_min(box);
    stats.relax_sent += box.size();
  }
  const std::vector<Msg> incoming =
      simmpi::two_level_alltoallv(comm, outbox, group);
  for (auto& box : outbox) box.clear();
  stats.relax_received += incoming.size();
  for (const Msg& m : incoming) {
    apply(decode_target(part, m), m.dist,
          static_cast<graph::VertexId>(m.parent));
  }
}

}  // namespace g500::core
