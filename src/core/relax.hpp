// The relaxation kernel every distributed SSSP engine shares.
//
// An engine turns edge scans into candidates "target may be reachable at
// `dist` via `parent`" and delivers each to the target's owner.  The pieces
// of that path live here once:
//
//   * coalesce_min — per-destination coalescing: keep the least
//     (dist, parent) record per target with util::keep_least, the radix
//     coalescer of util/radix_sort.hpp.  The survivors, their ascending-key
//     order and the dropped count equal a full sort by (key, less)
//     followed by unique-by-key.  Which of several tied records survives
//     cannot show: records of equal target that tie on (dist, parent) are
//     byte-identical;
//   * the wire codec — the 24-byte RelaxRequest or the 12-byte
//     PackedRelaxRequest (target pre-localized to the owner's index space),
//     a compile-time record parameter that with_record picks at run time;
//   * Router — hub filter, then local fusion, then the caller's sink; it
//     owns the hub index (a flat open-addressing table with linear
//     probing) and mirror, knows when a tighten would move the mirror, and
//     computes each candidate's owner and owner-local index once;
//   * exchange — one bulk-synchronous round: coalesce, flat or two-level
//     alltoallv, decode, apply.
#pragma once

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
#include "util/radix_sort.hpp"

namespace g500::core {

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
  return util::keep_least(
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
      const auto index = static_cast<std::uint32_t>(i);
      std::size_t s = home(g.hubs[i]);
      while (slots_[s].hub != graph::kNoVertex) s = (s + 1) & mask();
      slots_[s] = HubSlot{g.hubs[i], index};
      if (g.part.owner(g.hubs[i]) == rank) {
        owned_.push_back(OwnedHub{g.part.local(g.hubs[i]), index});
      }
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
        if (!is_local) {
          mirror_[hub] = cand;
          lowered_ = true;
        }
      }
    }

    if (is_local && local_fusion_) {
      fuse(local, cand, via);
      ++stats_.fused_local;
      return;
    }
    sink(owner, encode<Msg>(target, local, cand, via));
  }

  /// Whether hub caching is on (the router holds a mirror).
  [[nodiscard]] bool caches_hubs() const { return !mirror_.empty(); }

  /// Mirrored tentative distance of g.hubs[i] (empty when hub caching is
  /// off).  Checkpoints save it with the run.
  [[nodiscard]] const std::vector<graph::Weight>& mirror() const {
    return mirror_;
  }

  /// Adopt a checkpoint's mirror.  It may hold entries a route lowered
  /// after the last tighten, so the router counts as stale.
  void restore_mirror(const std::vector<graph::Weight>& mirror) {
    mirror_ = mirror;
    lowered_ = true;
  }

  /// Would this rank's tighten contribution differ from the mirror every
  /// rank agreed on at the last tighten?  Only if route lowered an entry
  /// since, or an owned hub's distance fell below its entry.  An owned
  /// hub's distance can also sit above its entry, when a pruned run's
  /// owner rejected the lowered value; another rank still contributes that
  /// value, so the minimum stays put.  When no rank is stale, the
  /// allreduce would return the mirror unchanged.
  [[nodiscard]] bool stale() const {
    if (lowered_) return true;
    for (const OwnedHub& h : owned_) {
      if (dist_[h.local] < mirror_[h.index]) return true;
    }
    return false;
  }

  /// Tighten every mirror entry to its owner's authoritative distance:
  /// one H-length min-allreduce, counted in hub_syncs.  Collective; the
  /// caller runs it only when some rank is stale().
  void tighten(simmpi::Comm& comm) {
    std::vector<graph::Weight> contribution = mirror_;
    for (const OwnedHub& h : owned_) contribution[h.index] = dist_[h.local];
    mirror_ = comm.allreduce_vec<graph::Weight>(
        contribution,
        [](graph::Weight a, graph::Weight b) { return b < a ? b : a; });
    lowered_ = false;
    ++stats_.hub_syncs;
  }

 private:
  struct HubSlot {
    graph::VertexId hub;
    std::uint32_t index;  // into g.hubs and mirror_
  };
  struct OwnedHub {
    graph::LocalId local;
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
  std::vector<OwnedHub> owned_;               // the hubs this rank owns
  int shift_ = 0;
  std::vector<graph::Weight> mirror_;
  bool lowered_ = false;  // route lowered an entry since the last tighten
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
