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

/// Options: Bellman-Ford honours the coalesce, local_fusion and
/// hierarchical_group knobs of SsspConfig, which it shares with the other
/// engines through core/relax.hpp (hub caching and direction switching are
/// delta-stepping features and are ignored here).
[[nodiscard]] SsspResult bellman_ford(simmpi::Comm& comm,
                                      const graph::DistGraph& g,
                                      graph::VertexId root,
                                      const SsspConfig& config = {},
                                      SsspStats* stats = nullptr);

}  // namespace g500::core
