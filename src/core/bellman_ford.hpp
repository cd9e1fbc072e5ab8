// Distributed Bellman-Ford: the bucket-less baseline the evaluation
// compares delta-stepping against.  Every round relaxes *all* edges of the
// active set — no priority schedule, so low-distance vertices are relaxed
// repeatedly as better paths arrive, and the round count equals the graph's
// unweighted hop diameter in the worst case.
#pragma once

#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

/// Options: Bellman-Ford honours coalesce, local_fusion, hierarchical_group
/// (shared with the other engines through core/relax.hpp) and direction
/// kAuto or kPush (it always pushes).  Bucket-less, it refuses a positive
/// delta, max_buckets, kPull and the bucket trace; hub_cache and compress,
/// on by default, are ignored.
[[nodiscard]] SsspResult bellman_ford(simmpi::Comm& comm,
                                      const graph::DistGraph& g,
                                      graph::VertexId root,
                                      const SsspConfig& config = {},
                                      SsspStats* stats = nullptr);

}  // namespace g500::core
