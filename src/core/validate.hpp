// Graph 500 SSSP result validation.
//
// An official submission must pass result checks on every sampled root; the
// same checks gate every benchmark run and test here:
//
//   V1  root/parent/dist local consistency (root is its own parent at
//       distance 0; unreachable <=> no parent <=> infinite distance);
//   V2  no relaxable edge remains: for every edge (u, v, w) with u
//       reachable, dist[v] <= dist[u] + w (up to float tolerance);
//   V3  every reachable non-root vertex has a tree edge: an edge
//       (parent[v], v, w) exists with dist[v] = dist[parent[v]] + w;
//   V4  the parent pointers form a tree rooted at the SSSP root: each rank
//       walks its owned vertices' parent chains over the gathered parents
//       until they meet a vertex known to reach the root, so cycles and
//       stray forests fail without a collective per tree level.
//
// Each rank gathers one copy of the whole result (distances and parents,
// 13 B per global vertex with the walk's state byte) and checks its own
// rows against it with plain scans.  A validation makes six collectives at
// any tree depth.  Out-of-range parents and edge targets fail a check; they
// are never used as an index.  validate_bfs (bfs.hpp) works the same way.
// Failures are aggregated so every rank returns the same report.
#pragma once

#include <string>
#include <vector>

#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

struct ValidationReport {
  bool ok = true;
  /// Human-readable failure descriptions (capped; same on every rank).
  std::vector<std::string> errors;
  /// Directed edges examined by V2 (global).
  std::uint64_t edges_checked = 0;
  /// Vertices with finite distance (global).
  std::uint64_t reachable = 0;
};

/// Validate `mine` (this rank's slice) against the distributed graph.
/// `tolerance` absorbs float rounding in the V2/V3 comparisons.
[[nodiscard]] ValidationReport validate_sssp(simmpi::Comm& comm,
                                             const graph::DistGraph& g,
                                             graph::VertexId root,
                                             const SsspResult& mine,
                                             double tolerance = 1e-5);

}  // namespace g500::core
