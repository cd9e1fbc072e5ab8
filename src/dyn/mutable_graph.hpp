// Streaming mutations over the distributed CSR.
//
// Production graph services mutate under live traffic, but the engine (and
// every structure derived from the graph — hub lists, pull index, oracle
// slices, caches) assumes a frozen DistGraph.  MutableGraph bridges the
// two with a batched delta log:
//
//   * stage() buffers edge updates locally (the delta log);
//   * commit_batch() is a collective that routes both directions of every
//     staged update to the owning ranks (exactly like the builder), merges
//     conflicting ops deterministically, reads each op's old weight from
//     the committed CSR row, splices the effective changes into the
//     rank-local view (graph::LocalCsr::splice and PullIndex::splice copy
//     untouched rows and pull groups in bulk and re-sort only the touched
//     ones, so a commit costs one copy of the arrays plus the batch, not a
//     sort of the graph), and agrees a new monotonically increasing
//     graph_version by allreduce;
//   * the committed CSR is the only copy of the edges, and after a commit
//     the view equals a fresh build of its edges except for the hub list,
//     so periodic compaction just re-selects hubs from the current degrees.
//
// The committed view is a real DistGraph, so every existing kernel runs
// over it unchanged; commit summaries carry exactly the seed/suspect sets
// dyn::incremental_sssp_repair needs to re-relax only the affected cone.
//
// Batch-merge rule (deterministic regardless of which rank staged what):
// ops on the same undirected edge within one commit merge by precedence
// kDelete > kSet > kInsert, ties resolved to the minimum weight of the
// winning class.  Inserting an edge that already exists keeps the minimum
// of the old and new weight (the builder's parallel-edge dedup rule);
// kSet overwrites the weight exactly (the only way to *increase* one);
// self-loops are dropped, as in the builder.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/builder.hpp"
#include "simmpi/comm.hpp"

namespace g500::dyn {

enum class UpdateOp : std::uint8_t { kInsert = 0, kSet = 1, kDelete = 2 };

/// One staged undirected edge update (weight is ignored for kDelete).
struct EdgeUpdate {
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  graph::Weight weight = 0.0f;
  UpdateOp op = UpdateOp::kInsert;
};

/// One undirected edge the last commit effectively changed, canonical
/// (u < v); the list is identical on every rank (allgathered) so the
/// serving layer can evaluate invalidation brackets collectively.
struct AppliedEdge {
  graph::VertexId u = 0;
  graph::VertexId v = 0;
  graph::Weight old_weight = 0.0f;  ///< meaningful iff had_old
  graph::Weight new_weight = 0.0f;  ///< meaningful iff !removed
  std::uint8_t had_old = 0;         ///< edge existed before the commit
  std::uint8_t removed = 0;         ///< edge is gone after the commit
  std::uint8_t pad0 = 0;
  std::uint8_t pad1 = 0;
};

/// A removed or weight-increased directed copy stored on this rank.  The
/// repair layer tests `parent[local(src)] == dst` against a pre-update
/// SSSP tree to find vertices whose label may no longer be attainable.
struct SuspectEdge {
  graph::VertexId src = 0;  ///< owned by this rank
  graph::VertexId dst = 0;
  graph::Weight old_weight = 0.0f;
};

/// What one commit_batch() did.  Global fields are identical on every
/// rank; decrease_seeds/suspects are this rank's owned share.
struct CommitSummary {
  std::uint64_t graph_version = 0;
  std::uint64_t staged_global = 0;       ///< updates staged, all ranks
  std::uint64_t self_loops_dropped = 0;  ///< global
  std::uint64_t inserted = 0;            ///< global, undirected
  std::uint64_t removed = 0;             ///< global, undirected
  std::uint64_t reweighted = 0;          ///< global, undirected
  bool compacted = false;

  /// Effective undirected changes, canonical u < v, sorted; identical on
  /// every rank.
  std::vector<AppliedEdge> applied;
  /// Owned sources of inserted/decreased directed copies — warm-start
  /// seeds for incremental repair (this rank only, deduplicated).
  std::vector<graph::LocalId> decrease_seeds;
  /// Removed/increased directed copies stored here (this rank only).
  std::vector<SuspectEdge> suspects;

  [[nodiscard]] std::uint64_t edges_applied() const noexcept {
    return applied.size();
  }
};

/// Lifetime counters of one MutableGraph (global unless noted).
struct DynStats {
  std::uint64_t batches = 0;
  std::uint64_t updates_staged = 0;  ///< this rank
  std::uint64_t edges_applied = 0;   ///< undirected effective changes
  std::uint64_t inserted = 0;
  std::uint64_t removed = 0;
  std::uint64_t reweighted = 0;
  std::uint64_t self_loops_dropped = 0;
  std::uint64_t compactions = 0;
};

class MutableGraph {
 public:
  struct Config {
    /// Compact every N commits (0 = only on explicit compact()).
    std::uint64_t compact_every = 0;
    /// The options a fresh build of the view would use.  Under
    /// build_pull_index a commit patches the pull index, or builds it from
    /// the CSR when the base came without one (built or loaded without
    /// it); otherwise it drops the index.  Compaction re-selects
    /// resolved_hub_count(build, n) hubs.
    graph::BuildOptions build;
  };

  /// Adopt `base` as version 0, as built (a mapped base stays mapped until
  /// the first commit).  SPMD: every rank passes its own piece; `config`
  /// must be identical on every rank (the compaction decision is derived
  /// from it on all ranks in lockstep).
  MutableGraph(simmpi::Comm& comm, graph::DistGraph base, Config config);
  MutableGraph(simmpi::Comm& comm, graph::DistGraph base);

  /// The current committed graph.  The reference is stable across commits
  /// and compactions (the contents are replaced in place), so engines and
  /// services can hold it for the MutableGraph's lifetime.
  [[nodiscard]] const graph::DistGraph& view() const noexcept { return view_; }

  /// Monotonically increasing version, bumped (allreduce-agreed) by every
  /// commit_batch().  Version 0 is the adopted base.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] const DynStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t pending() const noexcept { return staged_.size(); }

  /// Buffer one update locally (any rank may stage any edge).  Throws
  /// std::out_of_range on an endpoint >= num_vertices, like the builder.
  void stage(const EdgeUpdate& update);
  void stage_insert(graph::VertexId u, graph::VertexId v, graph::Weight w);
  void stage_set(graph::VertexId u, graph::VertexId v, graph::Weight w);
  void stage_delete(graph::VertexId u, graph::VertexId v);

  /// Collective: apply every staged update (on all ranks), splice the
  /// changes into the local view, bump the version, and maybe compact.
  /// Every rank must call it, even with nothing staged.
  CommitSummary commit_batch();

  /// Collective: re-select the hub list from the current degrees (the
  /// only part of the view that commits leave stale).
  void compact();

 private:
  simmpi::Comm& comm_;
  Config config_;
  graph::DistGraph view_;
  std::uint64_t version_ = 0;
  std::uint64_t commits_since_compact_ = 0;

  std::vector<EdgeUpdate> staged_;
  DynStats stats_;
};

}  // namespace g500::dyn
