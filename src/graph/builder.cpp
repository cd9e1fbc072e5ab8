#include "graph/builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace g500::graph {

namespace {

/// Candidate hub entry exchanged between ranks.
struct HubCandidate {
  VertexId vertex;
  std::uint64_t degree;
};

/// Deterministic hub ordering: degree descending, id ascending on ties.
bool hub_less(const HubCandidate& a, const HubCandidate& b) {
  if (a.degree != b.degree) return a.degree > b.degree;
  return a.vertex < b.vertex;
}

/// Keep the first `count` candidates in hub order, sorted.
void keep_top(std::vector<HubCandidate>& candidates, std::size_t count) {
  const auto middle =
      candidates.begin() +
      static_cast<std::ptrdiff_t>(std::min(count, candidates.size()));
  std::partial_sort(candidates.begin(), middle, candidates.end(), hub_less);
  candidates.erase(middle, candidates.end());
}

}  // namespace

std::size_t resolved_hub_count(const BuildOptions& opts,
                               VertexId num_vertices) {
  if (opts.hub_count != BuildOptions::kAutoHubCount) return opts.hub_count;
  return std::min<std::size_t>(
      1024, std::max<std::size_t>(
                16, static_cast<std::size_t>(num_vertices / 256)));
}

void select_hubs(simmpi::Comm& comm, const BlockPartition& part,
                 const LocalCsr& csr, std::size_t hub_count,
                 std::vector<VertexId>& hubs,
                 std::vector<std::uint64_t>& hub_degrees) {
  hubs.clear();
  hub_degrees.clear();
  if (hub_count == 0) return;

  // Local top-H by degree...
  std::vector<HubCandidate> local;
  local.reserve(csr.num_local());
  for (LocalId u = 0; u < csr.num_local(); ++u) {
    const auto deg = csr.degree(u);
    if (deg > 0) {
      local.push_back(HubCandidate{part.global(comm.rank(), u), deg});
    }
  }
  keep_top(local, hub_count);

  // ...then the global top-H from the union of local candidates.  Correct
  // because a global top-H vertex is necessarily in its owner's local top-H.
  std::vector<HubCandidate> all = comm.allgatherv(local);
  keep_top(all, hub_count);

  hubs.reserve(all.size());
  hub_degrees.reserve(all.size());
  for (const auto& c : all) {
    hubs.push_back(c.vertex);
    hub_degrees.push_back(c.degree);
  }
}

DistGraph build_distributed(simmpi::Comm& comm, const EdgeList& input_slice,
                            VertexId num_vertices, const BuildOptions& opts) {
  if (num_vertices == 0) {
    throw std::invalid_argument("build_distributed: empty vertex set");
  }
  DistGraph g;
  g.num_vertices = num_vertices;
  g.part = BlockPartition(num_vertices, comm.size());
  g.num_input_edges =
      comm.allreduce_sum<std::uint64_t>(input_slice.edges.size());

  // Route both directions of every tuple to the owner of the direction's
  // source.  Self-loops never affect shortest paths; drop them here.
  const int P = comm.size();
  std::vector<std::vector<WireEdge>> outbox(static_cast<std::size_t>(P));
  for (const auto& e : input_slice.edges) {
    if (e.src == e.dst) continue;
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      throw std::out_of_range("build_distributed: edge endpoint >= n");
    }
    outbox[static_cast<std::size_t>(g.part.owner(e.src))].push_back(
        WireEdge{e.src, e.dst, e.weight});
    outbox[static_cast<std::size_t>(g.part.owner(e.dst))].push_back(
        WireEdge{e.dst, e.src, e.weight});
  }
  std::vector<WireEdge> mine = comm.alltoallv(outbox);
  outbox.clear();
  outbox.shrink_to_fit();

  dedup_min_weight(mine);

  // Localize sources and build the CSR.
  const VertexId my_begin = g.part.begin(comm.rank());
  for (auto& e : mine) {
    e.src -= my_begin;  // LocalCsr takes local source indices
  }
  g.csr = LocalCsr(static_cast<LocalId>(g.part.count(comm.rank())),
                   std::move(mine));
  if (opts.build_pull_index) g.pull = PullIndex::from_csr(g.csr);
  finish_local(comm, g);

  select_hubs(comm, g.part, g.csr, resolved_hub_count(opts, num_vertices),
              g.hubs, g.hub_degrees);
  return g;
}

void finish_local(simmpi::Comm& comm, DistGraph& g) {
  g.num_directed_edges = comm.allreduce_sum<std::uint64_t>(g.csr.num_edges());
  g.backing = GraphBacking::kResident;
  g.mapped_bytes = 0;
  g.mapping.reset();
}

DistGraph build_kronecker(simmpi::Comm& comm, const KroneckerParams& params,
                          const BuildOptions& opts) {
  const std::uint64_t total = params.num_edges();
  const auto P = static_cast<std::uint64_t>(comm.size());
  const auto r = static_cast<std::uint64_t>(comm.rank());
  const std::uint64_t begin = total * r / P;
  const std::uint64_t end = total * (r + 1) / P;

  EdgeList slice;
  slice.num_vertices = params.num_vertices();
  slice.edges = kronecker_slice(params, begin, end);
  return build_distributed(comm, slice, params.num_vertices(), opts);
}

EdgeList slice_for_rank(const EdgeList& whole, int rank, int num_ranks) {
  if (num_ranks < 1 || rank < 0 || rank >= num_ranks) {
    throw std::invalid_argument("slice_for_rank: bad rank");
  }
  const std::uint64_t total = whole.edges.size();
  const auto P = static_cast<std::uint64_t>(num_ranks);
  const auto r = static_cast<std::uint64_t>(rank);
  EdgeList slice;
  slice.num_vertices = whole.num_vertices;
  slice.edges.assign(
      whole.edges.begin() + static_cast<std::ptrdiff_t>(total * r / P),
      whole.edges.begin() + static_cast<std::ptrdiff_t>(total * (r + 1) / P));
  return slice;
}

}  // namespace g500::graph
