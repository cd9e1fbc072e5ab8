#include "core/seq_delta_stepping.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/bucket_queue.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::kInfDistance;
using graph::kNoVertex;
using graph::LocalId;
using graph::VertexId;
using graph::Weight;

SequentialResult seq_delta_stepping(const graph::EdgeList& graph,
                                    VertexId root, double delta,
                                    SeqDeltaStats* stats) {
  const VertexId n = graph.num_vertices;
  if (root >= n) {
    throw std::out_of_range("seq_delta_stepping: root out of range");
  }
  SeqDeltaStats scratch;
  SeqDeltaStats& st = stats != nullptr ? *stats : scratch;
  util::Timer total;

  // Clean adjacency, weight-sorted per vertex so the light/heavy split is
  // a single boundary index (mirrors LocalCsr).
  struct Adj {
    VertexId dst;
    Weight w;
  };
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<Adj> adj;
  {
    struct Dir {
      VertexId src, dst;
      Weight w;
    };
    std::vector<Dir> dirs;
    dirs.reserve(graph.edges.size() * 2);
    for (const auto& e : graph.edges) {
      if (e.src == e.dst) continue;
      if (e.src >= n || e.dst >= n) {
        throw std::out_of_range("seq_delta_stepping: edge endpoint >= n");
      }
      dirs.push_back({e.src, e.dst, e.weight});
      dirs.push_back({e.dst, e.src, e.weight});
    }
    std::sort(dirs.begin(), dirs.end(), [](const Dir& a, const Dir& b) {
      if (a.src != b.src) return a.src < b.src;
      if (a.dst != b.dst) return a.dst < b.dst;
      return a.w < b.w;
    });
    dirs.erase(std::unique(dirs.begin(), dirs.end(),
                           [](const Dir& a, const Dir& b) {
                             return a.src == b.src && a.dst == b.dst;
                           }),
               dirs.end());
    // Weight-sort within each vertex group.
    std::stable_sort(dirs.begin(), dirs.end(), [](const Dir& a, const Dir& b) {
      if (a.src != b.src) return a.src < b.src;
      return a.w < b.w;
    });
    adj.reserve(dirs.size());
    for (const auto& d : dirs) {
      ++offsets[d.src + 1];
      adj.push_back({d.dst, d.w});
    }
    for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  }

  if (delta <= 0.0) {
    const double avg_degree = std::max(
        1.0, static_cast<double>(adj.size()) / static_cast<double>(n));
    delta = std::clamp(1.0 / avg_degree, 1.0 / 64.0, 1.0);
  }
  std::vector<std::uint64_t> split(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto first = adj.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    const auto last = adj.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    split[v] = static_cast<std::uint64_t>(
        std::lower_bound(first, last, static_cast<Weight>(delta),
                         [](const Adj& a, Weight d) { return a.w < d; }) -
        adj.begin());
  }

  SequentialResult result;
  result.dist.assign(n, kInfDistance);
  result.parent.assign(n, kNoVertex);
  BucketQueue queue(n);
  std::vector<std::uint64_t> r_tag(n, BucketQueue::kNone);

  auto relax = [&](VertexId v, Weight cand, VertexId via) {
    ++st.relaxations;
    if (cand < result.dist[v]) {
      result.dist[v] = cand;
      result.parent[v] = via;
      queue.update(static_cast<LocalId>(v),
                   static_cast<std::uint64_t>(
                       static_cast<double>(cand) / delta));
    }
  };

  result.dist[root] = 0.0f;
  result.parent[root] = root;
  queue.update(static_cast<LocalId>(root), 0);

  // The scan resumes at the bucket just processed: a heavy candidate can
  // round back into it (w >= float(delta), but bucket_of divides in
  // double), and then that bucket runs again.
  std::uint64_t k = 0;
  while ((k = queue.next_nonempty(k)) != BucketQueue::kNone) {
    ++st.buckets_processed;
    std::vector<LocalId> settled;
    while (true) {
      const auto active = queue.extract(k);
      if (active.empty()) break;
      ++st.light_phases;
      for (const auto v : active) {
        if (r_tag[v] != k) {
          r_tag[v] = k;
          settled.push_back(v);
        }
        const Weight d = result.dist[v];
        for (std::uint64_t e = offsets[v]; e < split[v]; ++e) {
          relax(adj[e].dst, d + adj[e].w, v);
        }
      }
    }
    for (const auto v : settled) {
      const Weight d = result.dist[v];
      for (std::uint64_t e = split[v]; e < offsets[v + 1]; ++e) {
        relax(adj[e].dst, d + adj[e].w, v);
      }
    }
  }
  st.seconds = total.seconds();
  return result;
}

}  // namespace g500::core
