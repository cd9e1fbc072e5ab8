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
//                           slice (RunControl::prune_lb / prune_budget) and
//                           the engine drops expansions and candidates that
//                           provably cannot improve the target's distance.
//
// Call SPMD-style from inside simmpi::World::run; every rank passes its own
// DistGraph piece and receives its owned slice of the result.  The tuning
// switches (SsspConfig) stay fixed across a caller's runs; what changes per
// run (warm start, pruning, deadline, checkpoint) is a RunControl, and the
// engine alone decides which of those controls combine.
#pragma once

#include <algorithm>

#include "core/checkpoint.hpp"
#include "core/dijkstra.hpp"
#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

/// Warm-start labels for an incremental repair run (RunControl::warm).
/// `dist`/`parent` are the owned slices of tentative labels to start from;
/// every finite label must be an attainable path sum from the root in the
/// *current* graph (or kInfDistance), and the root must carry distance 0.
/// `seeds` lists the owned local ids to queue initially (at
/// bucket_of(dist)); only finite-distance vertices may be seeded.
/// Relaxation from such a state converges to the same unique fixed point as
/// a fresh run, so the repaired distances are bit-identical to a
/// from-scratch recompute (parents may differ — both are valid trees).
struct WarmStart {
  std::vector<graph::Weight> dist;
  std::vector<graph::VertexId> parent;
  std::vector<graph::LocalId> seeds;
};

/// What a caller sets for one run, beside the engine's SsspConfig.  Every
/// control defaults to off.  Controls that cannot combine are rejected with
/// std::invalid_argument: a warm start excludes pruning, a deadline and a
/// checkpoint, and a pruned run excludes a checkpoint.
struct RunControl {
  /// Resume relaxation from these labels instead of seeding the roots: the
  /// engine queues only `warm->seeds` and runs the normal bucket schedule
  /// to quiescence.  dyn::incremental_sssp_repair re-relaxes only the
  /// affected cone after a graph mutation this way; a crashed repair is
  /// re-run from the caller's pre-update labels, never resumed.
  const WarmStart* warm = nullptr;

  /// Goal-directed (ALT) pruning.  When `prune_lb` is non-null it points
  /// at this rank's owned slice (indexed by local id) of an admissible
  /// lower bound on the remaining distance to a query target:
  /// prune_lb[local(v)] <= d(v, target).  The engine then drops work that
  /// provably cannot improve the target's distance against `prune_budget`,
  /// the best known upper bound on the answer: a vertex v is not expanded
  /// when dist(v) + lb(v) > budget, and an incoming candidate is not
  /// applied when cand + lb(v) > budget.  Every rank must pass slices of
  /// the same global bound vector and an identical budget, and the slice
  /// must outlive the call.  The resulting distance vector is exact at the
  /// target (and at every vertex within budget) but stale beyond it — do
  /// not reuse a pruned wave's slice for other targets, nor let it seed a
  /// snapshot.
  const std::vector<graph::Weight>* prune_lb = nullptr;
  /// Upper bound on the target's distance for the pruning test above
  /// (infinity = no candidate is ever dropped even when prune_lb is set).
  graph::Weight prune_budget = graph::kInfDistance;

  /// Deadline budget: stop *gracefully* after this many global bucket
  /// epochs (0 = unlimited).  Unlike SsspConfig::max_buckets this is not an
  /// error — the engine breaks out of the bucket loop at the
  /// allreduce-agreed epoch (so every rank stops at the same point),
  /// records the settled frontier in SsspStats::settled_bound, and returns
  /// the partial distance vector.  Every vertex with dist < settled_bound
  /// holds its exact distance; everything beyond is a (possibly infinite)
  /// upper bound.  The serving layer uses this to honour per-query
  /// deadlines.
  std::uint64_t deadline_buckets = 0;

  /// Checkpoint slot.  When non-null the engine snapshots its state into
  /// it every `checkpoint_interval` completed bucket epochs (0 = never),
  /// and — if the slot already holds a usable snapshot of the *same* run
  /// (same roots, delta, graph shape, same epoch on every rank) — resumes
  /// from it instead of starting fresh.  Deterministic re-execution makes
  /// the resumed result bit-identical to an uninterrupted run.  A completed
  /// run clears the slot.  Throws CheckpointError if a snapshot fails its
  /// integrity check.  The snapshot cost is recorded in
  /// SsspStats::checkpoint_seconds; the interval is read only with a slot.
  CheckpointState* checkpoint = nullptr;
  std::uint64_t checkpoint_interval = 0;
};

/// Run one SSSP from `root`.  `stats`, when non-null, receives this rank's
/// execution counters.  Deterministic for a fixed (graph, root, config,
/// control, rank count).
[[nodiscard]] SsspResult delta_stepping(simmpi::Comm& comm,
                                        const graph::DistGraph& g,
                                        graph::VertexId root,
                                        const SsspConfig& config = {},
                                        SsspStats* stats = nullptr,
                                        const RunControl& control = {});

/// Multi-source variant: distance to the *nearest* of `roots` (all start
/// at distance 0 and act as their own parents).  Equivalent to adding a
/// zero-weight super-source; used for nearest-facility queries.  `roots`
/// must be non-empty and identical on every rank.
[[nodiscard]] SsspResult delta_stepping_multi(
    simmpi::Comm& comm, const graph::DistGraph& g,
    const std::vector<graph::VertexId>& roots, const SsspConfig& config = {},
    SsspStats* stats = nullptr, const RunControl& control = {});

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
