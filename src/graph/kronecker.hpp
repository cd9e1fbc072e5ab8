// Graph 500 Kronecker (R-MAT style) edge generator.
//
// Matches the official specification: 2^scale vertices, edgefactor x 2^scale
// undirected input edges, initiator matrix [[A,B],[C,D]] with
// A=0.57, B=C=0.19, D=0.05, and a pseudo-random bijective scramble of vertex
// labels so locality cannot be exploited by construction order.
//
// The generator is *counter-based*: edge i is a pure function of
// (params, i), so any rank can materialize any slice of the edge list with
// no communication and the graph is identical regardless of how many ranks
// generate it — the property real Graph 500 runs rely on.  A slice derives
// the hashes every edge shares (per-level salts, the scramble's round keys)
// once and makes eight edges side by side, so their independent hash
// chains overlap; kronecker_edge is the same core run for one edge.
// Kronecker.GoldenStreamDigests pins the stream bit for bit.
//
// Weights: the SSSP benchmark augments each input edge with a uniform [0,1)
// weight; here weight(i) is derived from the same counter stream (clamped
// away from exact zero so edge weights are strictly positive, keeping
// shortest-path trees acyclic).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace g500::graph {

struct KroneckerParams {
  int scale = 16;          ///< log2(num_vertices)
  int edgefactor = 16;     ///< edges per vertex (undirected input tuples)
  std::uint64_t seed1 = 2; ///< Graph 500 default user seeds
  std::uint64_t seed2 = 3;

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return VertexId{1} << scale;
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return static_cast<std::uint64_t>(edgefactor) << scale;
  }

  /// Throws std::invalid_argument unless the stream can be generated:
  /// scale in [1, 62], edgefactor >= 1 and edgefactor << scale in 64 bits.
  /// Every slice checks once; so does the out-of-core build.
  void check() const;
};

/// Bijective scramble of a vertex label within [0, 2^scale), built from a
/// balanced Feistel network keyed by the seeds.  Same function the whole
/// library uses whenever a deterministic permutation of ids is needed.
[[nodiscard]] VertexId scramble_vertex(VertexId v, int scale,
                                       std::uint64_t seed1,
                                       std::uint64_t seed2);

/// Inverse of scramble_vertex (used by tests to prove bijectivity).
[[nodiscard]] VertexId unscramble_vertex(VertexId v, int scale,
                                         std::uint64_t seed1,
                                         std::uint64_t seed2);

/// Deterministically materialize edge #index of the Kronecker stream.
/// Derives the shared table for one edge; use a slice for many.
[[nodiscard]] Edge kronecker_edge(const KroneckerParams& params,
                                  std::uint64_t index);

/// Materialize the half-open slice [begin, end) of the edge stream.
/// Throws std::invalid_argument for params check() rejects and
/// std::out_of_range for a range outside [0, num_edges()].
[[nodiscard]] std::vector<Edge> kronecker_slice(const KroneckerParams& params,
                                                std::uint64_t begin,
                                                std::uint64_t end);

/// Whole graph as an EdgeList (small scales / tests / sequential oracle).
[[nodiscard]] EdgeList kronecker_graph(const KroneckerParams& params);

}  // namespace g500::graph
