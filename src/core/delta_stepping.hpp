// Distributed delta-stepping SSSP — the paper's primary contribution.
//
// Owner-computes over a 1-D block partition: each rank holds the tentative
// distance, parent and bucket position of its owned vertices.  The engine
// runs the classic Meyer-Sanders bucket schedule (light-edge inner rounds
// until the bucket drains, then one heavy-edge phase), with the
// record-scale optimizations as independently switchable features:
//
//   * message coalescing  — per-destination dedup, min candidate per target;
//   * hub caching         — replicated tentative distances for the top-degree
//                           vertices filter most traffic aimed at them;
//   * direction switching — dense frontiers are broadcast once (pull) instead
//                           of pushing a message per cut edge, in light
//                           rounds and heavy phases alike;
//   * local fusion        — relaxations that stay on-rank are applied
//                           immediately, skipping the exchange entirely;
//   * goal-directed pruning — point-to-point queries pass an ALT lower-bound
//                           slice (SsspConfig::prune_lb / prune_budget) and
//                           the engine drops expansions and candidates that
//                           provably cannot improve the target's distance.
//
// Call SPMD-style from inside simmpi::World::run; every rank passes its own
// DistGraph piece and receives its owned slice of the result.
#pragma once

#include <algorithm>

#include "core/checkpoint.hpp"
#include "core/dijkstra.hpp"
#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

/// Run one SSSP from `root`.  `stats`, when non-null, receives this rank's
/// execution counters.  Deterministic for a fixed (graph, root, config,
/// rank count).
[[nodiscard]] SsspResult delta_stepping(simmpi::Comm& comm,
                                        const graph::DistGraph& g,
                                        graph::VertexId root,
                                        const SsspConfig& config = {},
                                        SsspStats* stats = nullptr);

/// Multi-source variant: distance to the *nearest* of `roots` (all start
/// at distance 0 and act as their own parents).  Equivalent to adding a
/// zero-weight super-source; used for nearest-facility queries.  `roots`
/// must be non-empty and identical on every rank.
[[nodiscard]] SsspResult delta_stepping_multi(
    simmpi::Comm& comm, const graph::DistGraph& g,
    const std::vector<graph::VertexId>& roots, const SsspConfig& config = {},
    SsspStats* stats = nullptr);

/// Warm-start labels for an incremental repair run (delta_stepping_repair).
/// `dist`/`parent` are the owned slices of tentative labels to start from;
/// every finite label must be an attainable path sum from the root in the
/// *current* graph (or kInfDistance).  `seeds` lists the owned local ids to
/// queue initially (at bucket_of(dist)); only finite-distance vertices may
/// be seeded.  Relaxation from such a state converges to the same unique
/// fixed point as a fresh run, so the repaired distances are bit-identical
/// to a from-scratch recompute (parents may differ — both are valid trees).
struct WarmStart {
  std::vector<graph::Weight> dist;
  std::vector<graph::VertexId> parent;
  std::vector<graph::LocalId> seeds;
};

/// Resume relaxation from `warm` instead of seeding the root: the engine
/// queues only `warm.seeds` and runs the normal bucket schedule to
/// quiescence.  Used by dyn::incremental_sssp_repair to re-relax only the
/// affected cone after a graph mutation.  The root must carry distance 0 in
/// `warm.dist`.  Checkpoint/deadline features are rejected (repair is
/// re-run wholesale after a failure instead of resumed).
[[nodiscard]] SsspResult delta_stepping_repair(
    simmpi::Comm& comm, const graph::DistGraph& g, graph::VertexId root,
    const WarmStart& warm, const SsspConfig& config = {},
    SsspStats* stats = nullptr);

/// Checkpointed variant of delta_stepping: when `ckpt` is non-null and
/// config.checkpoint_interval > 0, the engine snapshots its state into
/// `ckpt` every interval bucket epochs, and — if `ckpt` already holds a
/// usable snapshot of the *same* run (same root, delta, graph shape, same
/// epoch on every rank) — resumes from it instead of starting fresh.
/// Deterministic re-execution makes the resumed result bit-identical to an
/// uninterrupted run.  A completed run clears `ckpt`.  Throws
/// CheckpointError if a snapshot fails its integrity check.
[[nodiscard]] SsspResult delta_stepping_checkpointed(
    simmpi::Comm& comm, const graph::DistGraph& g, graph::VertexId root,
    const SsspConfig& config, CheckpointState* ckpt,
    SsspStats* stats = nullptr);

/// The delta the engines choose for a graph (1-D or 2-D) when
/// config.delta <= 0: 1 / average directed degree, clamped to [1/64... 1].
template <typename Graph>
[[nodiscard]] double auto_delta(const Graph& g) {
  const double avg_degree =
      std::max(1.0, static_cast<double>(g.num_directed_edges) /
                        static_cast<double>(g.num_vertices));
  return std::clamp(1.0 / avg_degree, 1.0 / 64.0, 1.0);
}

/// Gather a distributed result into full global vectors on every rank
/// (test/example helper; materializes O(n) per rank).
[[nodiscard]] SequentialResult gather_result(simmpi::Comm& comm,
                                             const graph::DistGraph& g,
                                             const SsspResult& mine);

}  // namespace g500::core
