// Incremental SSSP repair: after a MutableGraph commit, re-relax only the
// affected cone of a previous SSSP result instead of recomputing.
//
// Float relaxation run to quiescence converges to the unique minimal fixed
// point (rounding is monotone: a <= a' implies round(a+w) <= round(a'+w)),
// so a warm-started run that reaches quiescence yields *distances*
// bit-identical to a from-scratch recompute — the property bench_dynamic
// gates on.  Parents may differ between the two runs; both are valid
// shortest-path trees.
//
// The repair protocol:
//   1. Suspects — owned vertices whose tree edge was removed or increased
//      (parent[local(v)] == u for a suspect directed copy (v, u)).
//   2. Invalidation — the suspect set's tree descendants, found by one
//      child-index exchange plus frontier waves down the pre-update tree;
//      invalidated labels reset to infinity (they may no longer be
//      attainable).
//   3. Seeding — endpoints of inserted/decreased edges plus every
//      finite-distance neighbor of an invalidated vertex.
//   4. One warm-started core::delta_stepping run (RunControl::warm) from
//      those seeds to quiescence.
//
// Call with the POST-commit graph view and the PRE-commit labels; labels
// are updated in place.  Crash recovery is wholesale: a failed repair is
// re-run from a caller-held copy of the pre-commit labels (the engine's
// checkpoint path is deliberately not used here).
#pragma once

#include "core/delta_stepping.hpp"
#include "dyn/mutable_graph.hpp"

namespace g500::dyn {

struct RepairStats {
  std::uint64_t suspects = 0;             ///< global
  std::uint64_t invalidated = 0;          ///< global
  std::uint64_t seeds = 0;                ///< global
  std::uint64_t invalidation_rounds = 0;  ///< tree-depth waves
  core::SsspStats sssp;                   ///< this rank's engine counters
};

/// Repair `labels` (this rank's owned slice of an SSSP fixed point for
/// `root` on the pre-commit graph) to the post-commit fixed point over
/// `g` (the post-commit view).  SPMD collective.  `config` holds the
/// engine's tuning switches; the repair run takes no other control.
void incremental_sssp_repair(simmpi::Comm& comm, const graph::DistGraph& g,
                             graph::VertexId root,
                             const CommitSummary& commit,
                             core::SsspResult& labels,
                             const core::SsspConfig& config = {},
                             RepairStats* stats = nullptr);

}  // namespace g500::dyn
