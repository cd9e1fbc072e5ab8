// Residency accounting for the graph an engine runs over.
//
// Engines are oblivious to whether a DistGraph's adjacency is heap-resident
// or mmap'd from a CSR shard (graph/csr.hpp views make both look alike);
// harnesses are not — the out-of-core experiments gate on *how much memory
// the graph actually pins*.  graph_residency() reports that split, and
// estimate_inmemory_build_bytes() is the planning-side counterpart: a lower
// bound on what graph::build_distributed would need per rank, used to
// decide (and to prove in telemetry) that a scale step is infeasible
// in-memory under a given cap.
#pragma once

#include <cstdint>

#include "graph/builder.hpp"
#include "graph/kronecker.hpp"
#include "util/json.hpp"

namespace g500::core {

/// Where a DistGraph's bytes live.
struct GraphResidency {
  graph::GraphBacking backing = graph::GraphBacking::kResident;
  /// Heap bytes pinned by the CSR arrays.  Zero for a mapped graph.
  std::uint64_t resident_bytes = 0;
  /// File-backed bytes behind the views (0 for a resident graph).  The OS
  /// pages these in on demand and may evict them under pressure.
  std::uint64_t mapped_bytes = 0;
};

[[nodiscard]] GraphResidency graph_residency(const graph::DistGraph& g);

/// Lower bound on the per-rank heap graph::build_distributed needs for
/// this Kronecker configuration: the builder simultaneously holds the
/// routed outbox (both directions of every generated tuple) and the
/// alltoallv result before the CSR even exists, so ~4 WireEdge copies of
/// the rank's input slice is the floor — independent of any CSR savings.
[[nodiscard]] std::uint64_t estimate_inmemory_build_bytes(
    const graph::KroneckerParams& params, int ranks);

/// Telemetry object (docs/out_of_core.md "residency").
[[nodiscard]] util::Json to_json(const GraphResidency& r);

}  // namespace g500::core
