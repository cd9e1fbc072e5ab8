#include "graph/grid2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace g500::graph {

ProcessGrid::ProcessGrid(int num_ranks) {
  if (num_ranks < 1) {
    throw std::invalid_argument("ProcessGrid: num_ranks must be >= 1");
  }
  // Factorization closest to square with rows <= cols.
  rows_ = 1;
  for (int r = static_cast<int>(std::sqrt(static_cast<double>(num_ranks)));
       r >= 1; --r) {
    if (num_ranks % r == 0) {
      rows_ = r;
      break;
    }
  }
  cols_ = num_ranks / rows_;
}

SourceBlock::SourceBlock(std::vector<WireEdge> edges) {
  sort_by_source_weight(edges);
  dst_.reserve(edges.size());
  w_.reserve(edges.size());
  for (const auto& e : edges) {
    if (sources_.empty() || sources_.back() != e.src) {
      sources_.push_back(e.src);
      offsets_.push_back(dst_.size());
    }
    dst_.push_back(e.dst);
    w_.push_back(e.weight);
  }
  offsets_.push_back(dst_.size());
}

SourceBlock::Range SourceBlock::find(VertexId source,
                                     std::size_t* index) const {
  const auto it = std::lower_bound(sources_.begin(), sources_.end(), source);
  if (it == sources_.end() || *it != source) return Range{};
  const auto i = static_cast<std::size_t>(it - sources_.begin());
  if (index != nullptr) *index = i;
  return Range{offsets_[i], offsets_[i + 1]};
}

std::uint64_t SourceBlock::split_at(Range r, Weight delta) const {
  return gallop_split(w_, r.first, r.last, delta);
}

Dist2DGraph build_2d(simmpi::Comm& comm, const EdgeList& input_slice,
                     VertexId num_vertices) {
  if (num_vertices == 0) {
    throw std::invalid_argument("build_2d: empty vertex set");
  }
  Dist2DGraph g;
  g.grid = ProcessGrid(comm.size());
  g.part = BlockPartition(num_vertices, comm.size());
  g.num_vertices = num_vertices;
  g.num_input_edges =
      comm.allreduce_sum<std::uint64_t>(input_slice.edges.size());

  // Route both directions of every tuple to the edge's checkerboard home.
  const int P = comm.size();
  std::vector<std::vector<WireEdge>> outbox(static_cast<std::size_t>(P));
  for (const auto& e : input_slice.edges) {
    if (e.src == e.dst) continue;
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      throw std::out_of_range("build_2d: edge endpoint >= n");
    }
    const int ou = g.part.owner(e.src);
    const int ov = g.part.owner(e.dst);
    outbox[static_cast<std::size_t>(g.grid.edge_home(ou, ov))].push_back(
        WireEdge{e.src, e.dst, e.weight});
    outbox[static_cast<std::size_t>(g.grid.edge_home(ov, ou))].push_back(
        WireEdge{e.dst, e.src, e.weight});
  }
  std::vector<WireEdge> mine = comm.alltoallv(outbox);
  outbox.clear();

  // Dedup to minimum weight per (src, dst).  Edge homes are deterministic,
  // so all duplicates of a directed edge land on the same rank.
  dedup_min_weight(mine);

  // Report per-source degrees to the source's owner.
  struct DegreeReport {
    VertexId vertex;
    std::uint64_t degree;
  };
  std::vector<std::vector<DegreeReport>> degree_out(
      static_cast<std::size_t>(P));
  for (std::size_t i = 0; i < mine.size();) {
    std::size_t j = i;
    while (j < mine.size() && mine[j].src == mine[i].src) ++j;
    degree_out[static_cast<std::size_t>(g.part.owner(mine[i].src))].push_back(
        DegreeReport{mine[i].src, j - i});
    i = j;
  }
  const auto degree_in = comm.alltoallv(degree_out);
  g.owned_degree.assign(g.part.count(comm.rank()), 0);
  for (const auto& report : degree_in) {
    g.owned_degree[g.part.local(report.vertex)] += report.degree;
  }

  g.block = SourceBlock(std::move(mine));
  g.num_directed_edges =
      comm.allreduce_sum<std::uint64_t>(g.block.num_edges());
  return g;
}

}  // namespace g500::graph
