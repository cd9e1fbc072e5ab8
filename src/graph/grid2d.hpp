// 2-D (checkerboard) edge placement.
//
// The standard alternative to the 1-D owner-computes layout at extreme
// scale: ranks form an R x C process grid; the edge u -> v is stored at the
// rank in grid column col(owner(u)) and grid row row(owner(v)), where
// row/col are the grid coordinates of the owning rank.  A relaxation round
// then touches only:
//   * the column group (R ranks) when broadcasting frontier distances, and
//   * the row group (C ranks) when returning candidates to owners,
// bounding per-rank message targets to R + C ~ 2 sqrt(P) instead of P.
// The engine built on this layout (core/delta_stepping_2d.hpp) is the
// comparison point for the paper's 1-D + hub-filtering design.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/partition.hpp"
#include "simmpi/comm.hpp"

namespace g500::graph {

/// Process-grid geometry: P ranks factored into rows x cols (rows * cols
/// == P; the factorization closest to square is chosen automatically).
class ProcessGrid {
 public:
  explicit ProcessGrid(int num_ranks);

  [[nodiscard]] int num_ranks() const noexcept { return rows_ * cols_; }
  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }

  [[nodiscard]] int row_of(int rank) const { return rank / cols_; }
  [[nodiscard]] int col_of(int rank) const { return rank % cols_; }
  [[nodiscard]] int rank_at(int row, int col) const {
    return row * cols_ + col;
  }

  /// Rank holding edges u -> v given the owning ranks of u and v.
  [[nodiscard]] int edge_home(int owner_u, int owner_v) const {
    return rank_at(row_of(owner_v), col_of(owner_u));
  }

 private:
  int rows_;
  int cols_;
};

/// Edge block keyed by *source* global id: distinct sources sorted, each
/// group's (destination, weight) pairs weight-ascending so the light/heavy
/// split for any delta is one binary search.  The same grouping as
/// PullIndex's arrays, but destinations stay global — they belong to other
/// ranks' blocks — and the 2-D engine looks groups up by source.
class SourceBlock {
 public:
  SourceBlock() = default;

  /// Build from cleaned directed edges (any order; regrouped here).
  explicit SourceBlock(std::vector<WireEdge> edges);

  [[nodiscard]] std::size_t num_sources() const noexcept {
    return sources_.size();
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return dst_.size();
  }

  struct Range {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    [[nodiscard]] bool empty() const noexcept { return first == last; }
  };
  /// Entry range of `source` ({0, 0} if it has no edges here).  If `index`
  /// is non-null and the source is present, its position among the sources
  /// is stored there (for split caching).
  [[nodiscard]] Range find(VertexId source,
                           std::size_t* index = nullptr) const;
  [[nodiscard]] Range range(std::size_t i) const {
    return Range{offsets_[i], offsets_[i + 1]};
  }
  [[nodiscard]] VertexId source(std::size_t i) const { return sources_[i]; }

  [[nodiscard]] VertexId dst(std::uint64_t e) const { return dst_[e]; }
  [[nodiscard]] Weight weight(std::uint64_t e) const { return w_[e]; }

  /// First entry of r with weight >= delta.
  [[nodiscard]] std::uint64_t split_at(Range r, Weight delta) const;

 private:
  std::vector<VertexId> sources_;
  std::vector<std::uint64_t> offsets_;
  std::vector<VertexId> dst_;
  std::vector<Weight> w_;
};

/// One rank's share of a 2-D partitioned graph.
///
/// `block` holds this rank's edges keyed by source global id; `part` is the
/// same 1-D vertex ownership used for distances, buckets and results —
/// only edge storage moves to the checkerboard.
struct Dist2DGraph {
  ProcessGrid grid{1};
  BlockPartition part;
  VertexId num_vertices = 0;
  std::uint64_t num_input_edges = 0;
  std::uint64_t num_directed_edges = 0;

  SourceBlock block;

  /// Out-degree of every *owned* vertex (this rank's edges live elsewhere
  /// in the grid; owners still need degrees for root eligibility).
  std::vector<std::uint64_t> owned_degree;
};

/// Build the 2-D distribution from this rank's slice of input tuples.
/// Cleaning matches build_distributed: both directions, self-loops
/// dropped, duplicates deduplicated to minimum weight (per edge home).
[[nodiscard]] Dist2DGraph build_2d(simmpi::Comm& comm,
                                   const EdgeList& input_slice,
                                   VertexId num_vertices);

}  // namespace g500::graph
