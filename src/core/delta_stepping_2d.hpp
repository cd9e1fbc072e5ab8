// Delta-stepping over the 2-D (checkerboard) edge distribution.
//
// The comparison engine for the paper's 1-D design: vertex state (distance,
// parent, buckets) stays with the 1-D owner, but edges live on the process
// grid, so a relaxation round becomes
//
//   1. owners broadcast their active (vertex, distance) pairs down their
//      grid *column* (the R ranks holding their out-edges),
//   2. edge ranks scan the light (or heavy) part of each active source's
//      edge group and emit candidates,
//   3. candidates travel along the grid *row* to the destination's owner,
//      which applies them and re-buckets.
//
// Per-rank communication partners shrink from P to R + C ~ 2 sqrt(P); the
// price is that every frontier entry is replicated R times.  bench
// `bench_partition2d` quantifies the trade against the 1-D engine.
//
// Honoured SsspConfig fields: delta, coalesce, hierarchical_group (the
// candidate exchange is the shared one of core/relax.hpp), max_buckets
// and direction kAuto or kPush (it always pushes).  It refuses kPull and
// the bucket trace, and ignores the default-on hub_cache, local_fusion and
// compress.  It takes no core::RunControl: those are 1-D engine features.
#pragma once

#include "core/dijkstra.hpp"
#include "core/sssp_types.hpp"
#include "graph/grid2d.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

[[nodiscard]] SsspResult delta_stepping_2d(simmpi::Comm& comm,
                                           const graph::Dist2DGraph& g,
                                           graph::VertexId root,
                                           const SsspConfig& config = {},
                                           SsspStats* stats = nullptr);

}  // namespace g500::core
