// Rank-local graph storage.
//
// LocalCsr: outgoing adjacency of the vertices a rank owns, with each
// vertex's edge list sorted by weight ascending.  The weight sort lets the
// SSSP engine derive the light/heavy split for *any* delta with one short
// search per vertex, so delta sweeps never rebuild the graph.  The graph
// is symmetric, so a row also lists the vertex's incoming edges: the
// engine's direction-optimized "pull" scans owned rows, lightest edge
// first, against the broadcast frontier.
//
// A LocalCsr is a *view* over its arrays: the normal construction path
// owns them as heap vectors, while the out-of-core path (shard.hpp) binds
// them to an mmap'd CSR shard so the engine runs with the adjacency paged
// in on demand instead of resident.  Accessors are identical either way;
// engines never see the difference.
//
// splice() applies a batch of edge changes: untouched rows are copied in
// bulk and only the touched ones re-sorted, so a mutable graph's commit
// costs one copy of the arrays plus the batch and still yields a fresh
// build's arrays exactly.
//
// DeltaSplit: what the delta-stepping engine derives from a LocalCsr and a
// bucket width delta — each row's light/heavy split, the light parts packed
// into arrays of their own and the rows a pulled round may open.  It
// depends on nothing else, so a LocalCsr memoizes the last one asked for
// and every solve at that delta reuses it.  A splice, a view and
// a fresh build start without one, so a changed graph never sees a stale
// split.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace g500::graph {

/// One directed edge on the wire during construction.
struct WireEdge {
  VertexId src = 0;
  VertexId dst = 0;
  Weight weight = 0.0f;
};

/// Keep the least-weight copy of each (src, dst), leaving the edges
/// ordered by (src, dst): the builders' rule for parallel edges.
void dedup_min_weight(std::vector<WireEdge>& edges);

/// Order edges by (src, weight, dst): each source's edges together,
/// lightest first — the layout of LocalCsr and SourceBlock.
void sort_by_source_weight(std::vector<WireEdge>& edges);

/// First position in [first, last) of the ascending weights `w` holding a
/// weight >= delta (last if none).  Gallops from `first`: a row usually
/// has one or two edges lighter than delta, so this reads a few weights
/// where a binary search over the row reads about log2 of its degree.
[[nodiscard]] std::uint64_t gallop_split(std::span<const Weight> w,
                                         std::uint64_t first,
                                         std::uint64_t last, Weight delta);

/// One change to a rank's edges, as LocalCsr::splice takes it: edge
/// src -> dst (src a local index) now weighs `weight`, or is gone when
/// `removed`.
struct EdgeChange {
  LocalId src = 0;
  VertexId dst = 0;
  Weight weight = 0.0f;
  bool removed = false;
};

class LocalCsr;

/// A LocalCsr's rows split at `delta`: edges with w < delta are light, the
/// rest heavy.  Immutable once derived.
struct DeltaSplit {
  /// Derive from `csr`: one pass over the rows finds the splits, a second
  /// copies the light edges.
  DeltaSplit(const LocalCsr& csr, Weight delta);

  /// A row a pulled round may open: owned vertex v and the first weight of
  /// the part it would scan.
  struct PullRow {
    LocalId v;
    Weight w0;
  };

  Weight delta;
  /// The light parts packed: row u's light edges, in the CSR's own
  /// (weight, dst) order, are [light_offsets[u], light_offsets[u + 1]) of
  /// light_dst and light_w.
  std::vector<std::uint64_t> light_offsets;
  std::vector<VertexId> light_dst;
  std::vector<Weight> light_w;
  /// Ascending by v: the rows with a non-empty light part (w0 their first
  /// light weight) and those with a non-empty heavy part (w0 their first
  /// heavy weight).
  std::vector<PullRow> light_rows;
  std::vector<PullRow> heavy_rows;

  /// Row u's light edge count, so its split: [edges_begin(u), edges_begin(u)
  /// + light_degree(u)) is light, the rest of the row heavy.
  [[nodiscard]] std::uint64_t light_degree(LocalId u) const {
    return light_offsets[u + 1] - light_offsets[u];
  }

  /// Heap bytes of the arrays above.
  [[nodiscard]] std::uint64_t bytes() const noexcept;
};

class LocalCsr {
 public:
  LocalCsr() = default;

  /// Build from directed edges whose sources are *local* indices in
  /// [0, num_local).  Edges must already be deduplicated; they are regrouped
  /// and weight-sorted here.  The resulting arrays are heap-owned.
  LocalCsr(LocalId num_local, std::vector<WireEdge> edges);

  /// Non-owning view over externally-owned CSR arrays (e.g. a mapped
  /// shard).  `offsets` must have num_local + 1 entries with offsets[0] == 0
  /// and offsets.back() == dst.size() == w.size(); the caller keeps the
  /// backing storage alive for the lifetime of the view (DistGraph carries
  /// the mapping handle).  Layout invariants (per-vertex weight sort) must
  /// already hold — the shard writer guarantees them.
  [[nodiscard]] static LocalCsr view(LocalId num_local,
                                     std::span<const std::uint64_t> offsets,
                                     std::span<const VertexId> dst,
                                     std::span<const Weight> w);

  /// This CSR with `changes` applied, heap-owned and equal array for array
  /// to a fresh build of the changed edges.  `changes` are sorted by
  /// (src, dst) with each pair at most once; removing a missing edge is a
  /// no-op.  Untouched rows are copied in bulk and only the touched rows
  /// are re-sorted, so the cost is one copy of the arrays plus the batch.
  [[nodiscard]] LocalCsr splice(std::span<const EdgeChange> changes) const;

  // Views alias owned vectors, so copies rebind and moves re-point.
  LocalCsr(const LocalCsr& other) { *this = other; }
  LocalCsr& operator=(const LocalCsr& other);
  LocalCsr(LocalCsr&& other) noexcept { *this = std::move(other); }
  LocalCsr& operator=(LocalCsr&& other) noexcept;

  /// True when the arrays live on this object's heap (false for a view
  /// into a mapped shard or other external storage).
  [[nodiscard]] bool owns_storage() const noexcept { return owned_; }

  /// Heap bytes of the arrays this object keeps resident (0 for a mapped
  /// view); the memoized split is not counted.
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept;

  [[nodiscard]] LocalId num_local() const noexcept { return num_local_; }
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return adj_dst_.size();
  }

  [[nodiscard]] std::uint64_t degree(LocalId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Edge index range [first, last) of vertex u, weight-ascending.
  [[nodiscard]] std::uint64_t edges_begin(LocalId u) const {
    return offsets_[u];
  }
  [[nodiscard]] std::uint64_t edges_end(LocalId u) const {
    return offsets_[u + 1];
  }

  [[nodiscard]] VertexId dst(std::uint64_t e) const { return adj_dst_[e]; }
  [[nodiscard]] Weight weight(std::uint64_t e) const { return adj_w_[e]; }

  /// First edge index of u with weight >= delta (edges are weight-sorted,
  /// so [edges_begin, split) are light and [split, edges_end) are heavy).
  [[nodiscard]] std::uint64_t split_at(LocalId u, Weight delta) const;

  /// These rows split at `delta`, derived at the first call and kept until
  /// a call with a delta of other bits replaces it.  Safe to call from
  /// several threads; the result stays valid for as long as it is held.
  /// Copies share it, and it lives on the heap even over a mapped view.
  [[nodiscard]] std::shared_ptr<const DeltaSplit> delta_split(
      Weight delta) const;

  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const VertexId> adjacency() const noexcept {
    return adj_dst_;
  }
  [[nodiscard]] std::span<const Weight> weights() const noexcept {
    return adj_w_;
  }

 private:
  void bind_owned();

  LocalId num_local_ = 0;
  bool owned_ = true;
  // Owned storage (empty for views)...
  std::vector<std::uint64_t> offsets_store_;  // num_local_ + 1
  std::vector<VertexId> dst_store_;
  std::vector<Weight> w_store_;
  // ...and the views every accessor reads through.
  std::span<const std::uint64_t> offsets_;
  std::span<const VertexId> adj_dst_;
  std::span<const Weight> adj_w_;
  // The last split delta_split derived (null until the first call).
  mutable std::mutex split_mutex_;
  mutable std::shared_ptr<const DeltaSplit> split_;
};

}  // namespace g500::graph
