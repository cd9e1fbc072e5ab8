#include "core/graph_view.hpp"

#include <algorithm>

namespace g500::core {

GraphResidency graph_residency(const graph::DistGraph& g) {
  GraphResidency r;
  r.backing = g.backing;
  r.resident_bytes = g.csr.resident_bytes();
  r.mapped_bytes = g.mapped_bytes;
  return r;
}

std::uint64_t estimate_inmemory_build_bytes(
    const graph::KroneckerParams& params, int ranks) {
  const std::uint64_t per_rank =
      params.num_edges() / static_cast<std::uint64_t>(std::max(1, ranks));
  // Outbox: 2 directed WireEdges per input tuple; alltoallv result: the
  // same 2 per tuple on average.  Both live at once at the exchange peak.
  return per_rank * 4 * sizeof(graph::WireEdge);
}

util::Json to_json(const GraphResidency& r) {
  util::Json j = util::Json::object();
  j["backing"] =
      r.backing == graph::GraphBacking::kMapped ? "mapped" : "resident";
  j["resident_bytes"] = r.resident_bytes;
  j["mapped_bytes"] = r.mapped_bytes;
  return j;
}

}  // namespace g500::core
