// Landmark (ALT) distance oracle for the serving layer.
//
// A point-to-point query does not need a whole SSSP wave: with K landmark
// vertices and their precomputed distance vectors, the triangle inequality
// brackets any d(s, t) from 2K lookups —
//
//   lb(s, t) = max_k |d(L_k, s) - d(L_k, t)|     (admissible lower bound)
//   ub(s, t) = min_k  d(L_k, s) + d(L_k, t)      (witness upper bound)
//
// — and the lower bound doubles as a goal-direction heuristic: a wave from
// s may drop any relaxation whose tentative distance plus lb(v, t) exceeds
// the best known ub(s, t), because no path through v can still improve the
// target (the pruning hook in core::delta_stepping).  Bounds alone settle
// three query classes outright: s == t, s a landmark (the precomputed wave
// *is* the fresh wave from s, so the value is bit-identical), and pairs a
// landmark proves to be in different components (one endpoint reachable
// from L_k, the other not).
//
// Landmark selection is degree-weighted farthest-point refinement: the
// seed is the global top-degree vertex (hub traffic makes it a good cover
// of the core), then each further landmark is the vertex farthest from the
// current set under one delta_stepping_multi wave, ties broken by higher
// degree then lower id.  Every choice reduces over global data, so all
// ranks agree without extra coordination.
//
// SPMD contract: the constructor and landmark_distances() are collective —
// every rank must call them in lockstep with identical arguments.  Bound
// math and lb slices are pure rank-local arithmetic on the fetched rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/delta_stepping.hpp"
#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "serve/fault.hpp"
#include "simmpi/comm.hpp"

namespace g500::serve {

struct OracleConfig {
  /// Landmark count K.  0 disables the oracle at the service level; the
  /// constructor itself requires K >= 1.  Clamped to the vertex count.
  std::size_t num_landmarks = 0;
};

class LandmarkOracle {
 public:
  /// Relative safety margin for the goal-directed pruning test: lower
  /// bounds are scaled by (1 - slack) and the budget by (1 + slack), so
  /// float rounding accumulated along long paths can never prune a
  /// relaxation the unpruned wave would have kept.  1/256 dwarfs the
  /// worst-case accumulation at any materializable diameter while costing
  /// a negligible slice of pruning power.  The service's scoped
  /// invalidation widens its brackets by the same margin.
  static constexpr double kPruneSlack = 1.0 / 256.0;

  /// Triangle-inequality verdict on one (s, t) pair.  When `exact` is set
  /// the answer is `ub` verbatim and it is bit-identical to what a fresh
  /// unpruned wave from s would report at t (0 for s == t, the landmark
  /// slice value for s in the landmark set, infinity when `unreachable`).
  struct Bounds {
    graph::Weight lb = 0.0f;
    graph::Weight ub = graph::kInfDistance;
    bool exact = false;
    bool unreachable = false;
  };

  /// Collective: selects the landmarks and runs one wave per landmark to
  /// precompute this rank's owned distance slices.  `sssp` supplies the
  /// engine knobs for those waves (any pruning fields are ignored), and
  /// `graph_version` is the version of the graph `g` views (part of the
  /// persistence digest, so slices persisted before a streaming mutation
  /// can never be adopted after one).
  ///
  /// When `store` is non-null it is this rank's persistence slot: a valid
  /// blob whose digest gate passes (format version, graph shape, landmark
  /// config and wave-relevant engine knobs all match, checksum intact —
  /// agreed across ranks, so no rank recomputes while another adopts) is
  /// adopted with ZERO precompute waves; otherwise the slices are
  /// recomputed and saved back into the slot.
  LandmarkOracle(simmpi::Comm& comm, const graph::DistGraph& g,
                 const OracleConfig& config, const core::SsspConfig& sssp,
                 std::uint64_t graph_version,
                 OracleSliceStore* store = nullptr);

  /// Landmark-distance rows for `vertices`: out[i][k] = d(L_k,
  /// vertices[i]).  One batched collective fetch for the whole list;
  /// every rank must pass the identical list (duplicates fine).
  [[nodiscard]] std::vector<std::vector<graph::Weight>> landmark_distances(
      const std::vector<graph::VertexId>& vertices);

  /// Bounds for (s, t) from rows previously fetched for both endpoints.
  /// Pure local arithmetic.
  [[nodiscard]] Bounds bounds(const std::vector<graph::Weight>& at_s,
                              const std::vector<graph::Weight>& at_t,
                              graph::VertexId s, graph::VertexId t) const;

  /// This rank's owned lower-bound slice toward a target with landmark
  /// row `at_t`: entry local(v) = max_k |d(L_k, v) - at_t[k]|, scaled by
  /// (1 - kPruneSlack); infinite when some landmark proves v and the
  /// target live in different components.  Feed to
  /// core::RunControl::prune_lb.
  [[nodiscard]] std::vector<graph::Weight> lb_slice(
      const std::vector<graph::Weight>& at_t) const;

  /// Loosen `slice` so it stays admissible for an additional target
  /// (elementwise min with that target's bound) — lets one pruned wave
  /// serve every target of a batched root group.
  void min_into_lb_slice(std::vector<graph::Weight>& slice,
                         const std::vector<graph::Weight>& at_t) const;

  /// Pruning budget for an upper bound: ub * (1 + kPruneSlack).
  [[nodiscard]] graph::Weight budget(graph::Weight ub) const;

  [[nodiscard]] const std::vector<graph::VertexId>& landmarks()
      const noexcept {
    return landmarks_;
  }

  /// Waves spent selecting landmarks and precomputing slices (0 when the
  /// slices were adopted from a persisted store).
  [[nodiscard]] std::uint64_t precompute_waves() const noexcept {
    return precompute_waves_;
  }
  [[nodiscard]] double precompute_seconds() const noexcept {
    return precompute_seconds_;
  }

  /// True when this oracle skipped precompute by adopting a store blob.
  [[nodiscard]] bool restored_from_store() const noexcept {
    return restored_;
  }

  /// Serialize landmarks and this rank's slices into `store` (versioned
  /// blob, identity digest, trailing checksum).  Called automatically by
  /// the constructor when it was given a slot; exposed for tests.
  void save(OracleSliceStore& store) const;

  /// Graph version the slices are currently solved on.
  [[nodiscard]] std::uint64_t graph_version() const noexcept {
    return graph_version_;
  }

  /// Collective: re-solve the slices whose index appears in `flagged`
  /// (one multi-source wave each, sorted-unique order) against the
  /// mutated graph the oracle's DistGraph reference now views, and stamp
  /// the oracle to `new_version`.  Unflagged slices are kept verbatim —
  /// the caller certifies their rows were unaffected by the mutation.
  /// Returns the number of waves run.  Every rank must pass identical
  /// arguments.
  std::uint64_t refresh_slices(const std::vector<std::size_t>& flagged,
                               std::uint64_t new_version);

 private:
  /// Digest pinning what a stored blob must have been computed from:
  /// format version, graph shape, landmark request and the engine knobs
  /// that affect slice bits.
  [[nodiscard]] std::uint64_t identity_digest() const;

  /// Rank-local half of the adopt gate: parse + verify `store` and load
  /// landmarks_/slices_ on success.
  [[nodiscard]] bool try_adopt(const OracleSliceStore& store);

  simmpi::Comm& comm_;
  const graph::DistGraph& g_;
  OracleConfig config_;
  core::SsspConfig sssp_;  ///< wave knobs with pruning fields cleared
  std::uint64_t graph_version_ = 0;  ///< version the slices are solved on

  std::vector<graph::VertexId> landmarks_;
  /// Per landmark, this rank's owned distance slice (indexed by local id).
  std::vector<std::vector<graph::Weight>> slices_;

  std::uint64_t precompute_waves_ = 0;
  double precompute_seconds_ = 0.0;
  bool restored_ = false;
};

}  // namespace g500::serve
