// Barrier-free delta-stepping over the simmpi::Aggregator transport.
//
// The synchronous engine (delta_stepping.hpp) pays one alltoallv plus a
// min-allreduce per bucket sub-round, so its critical path scales with the
// round count.  This variant removes the per-round synchronization
// entirely: relaxations stream out through per-destination aggregation
// buffers as they are generated, incoming candidates are drained
// opportunistically between local bucket expansions, and ranks proceed
// through their bucket queues without waiting for stragglers.  Termination
// is decided by Mattern-style quiescence detection instead of an epoch
// barrier, followed by one synchronous settle sweep that certifies the
// fixed point (see docs/async.md).
//
// Correctness: chaotic relaxation converges to the unique fixed point of
// the relaxation operator regardless of message order, and that fixed
// point — evaluated in the same float arithmetic — is exactly what the
// synchronous engine computes.  The distance array is therefore
// BIT-IDENTICAL to delta_stepping's for any schedule (parents may differ:
// several shortest paths can tie).  The argument excludes goal-directed
// pruning, whose correctness depends on a monotone execution order, so
// this engine takes no core::RunControl: pruning, deadlines, checkpoints
// and warm starts are delta_stepping's alone.
//
// Config knobs honoured: delta, coalesce (per-flush dedup), hub_cache
// (send-side mirror, tightened locally instead of by allreduce),
// local_fusion, compress, max_buckets (counts per-rank bucket expansions
// here), direction kAuto or kPush (it always pushes).  Refused, being
// meaningless without synchronized rounds: kPull (pull needs a globally
// agreed frontier), hierarchical_group > 1 (no alltoallv to restructure)
// and collect_bucket_trace.  The aggregator runs at a fixed capacity of
// 512 records and a maximum age of 4 poll cycles.
#pragma once

#include "core/dijkstra.hpp"
#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

/// Run one asynchronous SSSP from `root`.  SPMD: call from every rank
/// inside World::run.  Distances are bit-identical to delta_stepping();
/// stats (when non-null) additionally reports global_collectives,
/// sub_rounds and the aggregator flush split.
[[nodiscard]] SsspResult async_delta_stepping(simmpi::Comm& comm,
                                              const graph::DistGraph& g,
                                              graph::VertexId root,
                                              const SsspConfig& config = {},
                                              SsspStats* stats = nullptr);

/// Multi-source variant (nearest of `roots`), matching
/// delta_stepping_multi.
[[nodiscard]] SsspResult async_delta_stepping_multi(
    simmpi::Comm& comm, const graph::DistGraph& g,
    const std::vector<graph::VertexId>& roots, const SsspConfig& config = {},
    SsspStats* stats = nullptr);

}  // namespace g500::core
