// The relaxation kernel every distributed SSSP engine shares.
//
// An engine turns edge scans into candidates "target may be reachable at
// `dist` via `parent`" and delivers each to the target's owner.  The pieces
// of that path live here once:
//
//   * keep_least / coalesce_min — per-destination coalescing: sort a box
//     and keep the least record per key;
//   * the wire codec — the 24-byte RelaxRequest or the 12-byte
//     PackedRelaxRequest (target pre-localized to the owner's index space),
//     a compile-time record parameter that with_record picks at run time;
//   * Router — hub filter, then local fusion, then the caller's sink; it
//     owns the hub index and mirror;
//   * exchange — one bulk-synchronous round: coalesce, flat or two-level
//     alltoallv, decode, apply.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/hierarchical.hpp"

namespace g500::core {

/// Sort `box` by key(record), ties by `less`, and keep only the first —
/// the least — record of each key.  Returns how many records were dropped.
/// `less` must order records of equal key totally, so the survivors (and
/// their order) are deterministic.
template <typename T, typename Key, typename Less>
std::uint64_t keep_least(std::vector<T>& box, Key key, Less less) {
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

// ------------------------------------------------------------- wire codec

/// Target of a record as its sender wrote it.  Every record in one
/// destination's box has the same owner, so the global and owner-local
/// forms sort identically.
inline graph::VertexId target_key(const RelaxRequest& m) { return m.target; }
inline graph::VertexId target_key(const PackedRelaxRequest& m) {
  return m.target_local;
}

/// Encode a candidate for `owner`, the owner of `target`.
template <typename Msg>
Msg encode(const graph::BlockPartition& part, int owner,
           graph::VertexId target, graph::Weight dist,
           graph::VertexId parent) {
  if constexpr (std::is_same_v<Msg, PackedRelaxRequest>) {
    return PackedRelaxRequest{
        static_cast<std::uint32_t>(target - part.begin(owner)),
        static_cast<std::uint32_t>(parent), dist};
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
    if (!hub_cache || g.hubs.empty()) return;
    mirror_.assign(g.hubs.size(), graph::kInfDistance);
    index_.reserve(g.hubs.size() * 2);
    for (std::size_t i = 0; i < g.hubs.size(); ++i) {
      index_.emplace(g.hubs[i], static_cast<std::uint32_t>(i));
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
    const int owner = g_.part.owner(target);
    const bool is_local = owner == rank_;

    if (!mirror_.empty()) {
      const auto it = index_.find(target);
      if (it != index_.end()) {
        // The filter reference must never undercut the owner's
        // authoritative distance, or improving candidates would be
        // dropped; mirrors only carry values that were (or will be this
        // round) delivered to the owner, so mirror >= authoritative always
        // holds.
        const graph::Weight ref =
            is_local ? dist_[g_.part.local(target)] : mirror_[it->second];
        if (!(cand < ref)) {
          ++stats_.filtered_hub;
          return;
        }
        if (!is_local) mirror_[it->second] = cand;
      }
    }

    if (is_local && local_fusion_) {
      fuse(g_.part.local(target), cand, via);
      ++stats_.fused_local;
      return;
    }
    sink(owner, encode<Msg>(g_.part, owner, target, cand, via));
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
  const graph::DistGraph& g_;
  int rank_;
  const std::vector<graph::Weight>& dist_;
  bool local_fusion_;
  SsspStats& stats_;
  std::unordered_map<graph::VertexId, std::uint32_t> index_;
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
