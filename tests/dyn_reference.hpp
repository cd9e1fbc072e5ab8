// Test reference for dyn::MutableGraph: a host-side edge map applying the
// documented batch-merge rule, and the check that holds a committed view
// to a fresh build of the reference edges, array for array.  Shared by the
// MutableGraph suite and the mutation-batch fuzz sweep.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dyn/mutable_graph.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"

namespace g500::test {

using graph::DistGraph;
using graph::Edge;
using graph::EdgeList;
using graph::LocalId;
using graph::VertexId;
using graph::Weight;
using graph::WireEdge;
using dyn::EdgeUpdate;
using dyn::UpdateOp;

using EdgeTuple = std::tuple<VertexId, VertexId, Weight>;

/// Host-side reference: an undirected weighted edge map applying the same
/// batch-merge rule the MutableGraph documents (kDelete > kSet > kInsert,
/// min weight within the winning class; insert min-merges, set upserts).
class RefGraph {
 public:
  explicit RefGraph(const EdgeList& input) {
    for (const auto& e : input.edges) {
      if (e.src == e.dst) continue;
      const auto k = key(e.src, e.dst);
      const auto it = edges_.find(k);
      if (it == edges_.end()) {
        edges_.emplace(k, e.weight);
      } else {
        it->second = std::min(it->second, e.weight);
      }
    }
  }

  void apply(const std::vector<EdgeUpdate>& batch) {
    std::map<std::pair<VertexId, VertexId>, EdgeUpdate> merged;
    for (const auto& up : batch) {
      if (up.u == up.v) continue;
      const auto k = key(up.u, up.v);
      const auto it = merged.find(k);
      if (it == merged.end()) {
        merged.emplace(k, up);
        continue;
      }
      EdgeUpdate& win = it->second;
      if (up.op > win.op || (up.op == win.op && up.weight < win.weight)) {
        win = up;
      }
    }
    for (const auto& [k, up] : merged) {
      const auto it = edges_.find(k);
      switch (up.op) {
        case UpdateOp::kInsert:
          if (it == edges_.end()) {
            edges_.emplace(k, up.weight);
          } else {
            it->second = std::min(it->second, up.weight);
          }
          break;
        case UpdateOp::kSet:
          edges_[k] = up.weight;
          break;
        case UpdateOp::kDelete:
          if (it != edges_.end()) edges_.erase(it);
          break;
      }
    }
  }

  /// Both directed copies, sorted — the shape a gathered view must match.
  [[nodiscard]] std::vector<EdgeTuple> directed() const {
    std::vector<EdgeTuple> out;
    for (const auto& [k, w] : edges_) {
      out.emplace_back(k.first, k.second, w);
      out.emplace_back(k.second, k.first, w);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  /// One tuple per undirected edge — builder input for a fresh build.
  [[nodiscard]] EdgeList edge_list(VertexId n) const {
    EdgeList out;
    out.num_vertices = n;
    for (const auto& [k, w] : edges_) {
      out.edges.push_back(Edge{k.first, k.second, w});
    }
    return out;
  }

 private:
  static std::pair<VertexId, VertexId> key(VertexId u, VertexId v) {
    return {std::min(u, v), std::max(u, v)};
  }
  std::map<std::pair<VertexId, VertexId>, Weight> edges_;
};

/// Every directed edge of the committed view, gathered to all ranks.
inline std::vector<EdgeTuple> gather_view_edges(simmpi::Comm& comm,
                                                const DistGraph& g) {
  std::vector<WireEdge> mine;
  const VertexId my_begin = g.part.begin(comm.rank());
  for (LocalId u = 0; u < static_cast<LocalId>(g.part.count(comm.rank()));
       ++u) {
    for (std::uint64_t e = g.csr.edges_begin(u); e < g.csr.edges_end(u); ++e) {
      mine.push_back(WireEdge{my_begin + u, g.csr.dst(e), g.csr.weight(e)});
    }
  }
  const auto all = comm.allgatherv(mine);
  std::vector<EdgeTuple> out;
  out.reserve(all.size());
  for (const auto& e : all) out.emplace_back(e.src, e.dst, e.weight);
  std::sort(out.begin(), out.end());
  return out;
}

/// Stage `batch` round-robin over the ranks (the committed outcome must not
/// depend on who staged what), commit it, and apply it to `ref`.
inline dyn::CommitSummary commit_spread(simmpi::Comm& comm,
                                        dyn::MutableGraph& mg, RefGraph& ref,
                                        const std::vector<EdgeUpdate>& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(comm.size())) ==
        comm.rank()) {
      mg.stage(batch[i]);
    }
  }
  ref.apply(batch);
  return mg.commit_batch();
}

/// Hold the committed view to a from-scratch build of the reference edges
/// on the same ranks, array for array.  Hubs are compared only when
/// `with_hubs` is set: commits leave them stale until compact().
inline void expect_fresh_build(simmpi::Comm& comm, const DistGraph& view,
                               const RefGraph& ref, bool with_hubs,
                               const std::string& where) {
  const VertexId n = view.num_vertices;
  const DistGraph fresh = graph::build_distributed(
      comm, graph::slice_for_rank(ref.edge_list(n), comm.rank(), comm.size()),
      n);
  const auto same = [](auto a, auto b) { return std::ranges::equal(a, b); };
  EXPECT_TRUE(same(view.csr.offsets(), fresh.csr.offsets())) << where;
  EXPECT_TRUE(same(view.csr.adjacency(), fresh.csr.adjacency())) << where;
  EXPECT_TRUE(same(view.csr.weights(), fresh.csr.weights())) << where;
  EXPECT_EQ(view.num_directed_edges, fresh.num_directed_edges) << where;
  if (with_hubs) {
    EXPECT_EQ(view.hubs, fresh.hubs) << where;
    EXPECT_EQ(view.hub_degrees, fresh.hub_degrees) << where;
  }
}

}  // namespace g500::test
