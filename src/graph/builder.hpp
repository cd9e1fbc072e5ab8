// Distributed graph construction.
//
// Implements the Graph 500 construction phase: each rank holds a slice of
// the undirected input tuples; the builder routes both directions of every
// tuple to the owner of its source vertex (1-D block partition), drops
// self-loops, deduplicates parallel edges keeping the minimum weight (the
// SSSP-relevant one), and produces the rank-local CSR plus the hub list
// the optimized engine needs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/kronecker.hpp"
#include "graph/partition.hpp"
#include "simmpi/comm.hpp"

namespace g500::graph {

struct BuildOptions {
  /// "Size the hub list automatically": min(1024, max(16, n/256)) — hub
  /// replication pays off for a vanishing fraction of vertices, and the
  /// per-bucket mirror sync costs O(hubs) per rank per bucket.
  static constexpr std::size_t kAutoHubCount =
      ~static_cast<std::size_t>(0);

  /// How many top-degree vertices to expose as hubs (global, identical on
  /// every rank).  0 disables hub selection; explicit values are honored
  /// as-is; the default picks automatically per the graph size.
  std::size_t hub_count = kAutoHubCount;
};

/// How a DistGraph's adjacency arrays are backed: heap vectors built in
/// memory, or views into an mmap'd CSR shard (graph/shard.hpp) whose pages
/// the OS loads on demand — the out-of-core execution mode.
enum class GraphBacking { kResident, kMapped };

/// The distributed graph one rank holds.  An SPMD program constructs one
/// per rank; global invariants (hub list, edge counts) are identical across
/// ranks by construction.
struct DistGraph {
  BlockPartition part;
  VertexId num_vertices = 0;

  /// Undirected input tuples, including self-loops and duplicates — the M
  /// that official Graph 500 TEPS is normalized by.
  std::uint64_t num_input_edges = 0;
  /// Directed edges after cleaning, summed over ranks.
  std::uint64_t num_directed_edges = 0;

  LocalCsr csr;  ///< out-edges of owned vertices

  /// Always empty: the pull index is gone, and these four arrays stay only
  /// because perfbench/ooc_build.cpp's same_graph still compares them.  The
  /// benchmark change that drops that comparison deletes this.
  struct NoPullIndex {
    std::span<const VertexId> sources() const noexcept { return {}; }
    std::span<const std::uint64_t> offsets() const noexcept { return {}; }
    std::span<const LocalId> destinations() const noexcept { return {}; }
    std::span<const Weight> weights() const noexcept { return {}; }
  };
  static constexpr NoPullIndex pull{};

  /// Global ids of the top-degree vertices, highest degree first (ties by
  /// id ascending); identical on all ranks.
  std::vector<VertexId> hubs;
  /// Degrees matching `hubs` entry-wise.
  std::vector<std::uint64_t> hub_degrees;

  /// Storage backing of csr.  When kMapped, `mapping` keeps the shard
  /// file mapped for the lifetime of the views and `mapped_bytes` counts
  /// the file-backed section bytes (not resident heap).
  GraphBacking backing = GraphBacking::kResident;
  std::uint64_t mapped_bytes = 0;
  std::shared_ptr<const void> mapping;

  [[nodiscard]] int rank_of(VertexId v) const { return part.owner(v); }
  [[nodiscard]] VertexId local_count() const {
    return static_cast<VertexId>(csr.num_local());
  }
};

/// Build from an explicit slice of input tuples (every rank passes its own
/// slice; the union over ranks is the whole graph).
[[nodiscard]] DistGraph build_distributed(simmpi::Comm& comm,
                                          const EdgeList& input_slice,
                                          VertexId num_vertices,
                                          const BuildOptions& opts = {});

/// The rank-local fields a fresh build derives once g.csr is on the heap:
/// num_directed_edges (one allreduce, so this is a collective) and the
/// resident backing, which releases any shard mapping.  build_distributed
/// and dyn::MutableGraph's commits both end with it, so a committed view
/// matches a fresh build in these fields by construction.  Hubs and
/// num_input_edges are left to the caller.
void finish_local(simmpi::Comm& comm, DistGraph& g);

/// Convenience: generate this rank's Kronecker slice internally, then build.
[[nodiscard]] DistGraph build_kronecker(simmpi::Comm& comm,
                                        const KroneckerParams& params,
                                        const BuildOptions& opts = {});

/// Split an EdgeList by edge index so rank r of P receives a contiguous
/// slice — test helper mirroring how real runs shard generator output.
[[nodiscard]] EdgeList slice_for_rank(const EdgeList& whole, int rank,
                                      int num_ranks);

/// The effective hub count for `opts` on an n-vertex graph (resolves
/// BuildOptions::kAutoHubCount; shared by the builder and shard loader).
[[nodiscard]] std::size_t resolved_hub_count(const BuildOptions& opts,
                                             VertexId num_vertices);

/// Collectively agree on the global top-`hub_count` vertices by degree
/// (ties by id ascending): every rank contributes its local top
/// candidates, the union is reduced identically everywhere.  Shared by
/// build_distributed and load_sharded so both paths select the same hubs.
void select_hubs(simmpi::Comm& comm, const BlockPartition& part,
                 const LocalCsr& csr, std::size_t hub_count,
                 std::vector<VertexId>& hubs,
                 std::vector<std::uint64_t>& hub_degrees);

}  // namespace g500::graph
