#include "core/bellman_ford.hpp"

#include <stdexcept>

#include "core/relax.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::kInfDistance;
using graph::kNoVertex;
using graph::LocalId;
using graph::VertexId;
using graph::Weight;

SsspResult bellman_ford(simmpi::Comm& comm, const graph::DistGraph& g,
                        VertexId root, const SsspConfig& config,
                        SsspStats* stats) {
  refuse_one_d_switches(config, "bellman_ford");
  refuse_switch(config.delta > 0.0, "bellman_ford", "delta > 0");
  refuse_switch(config.max_buckets != 0, "bellman_ford", "max_buckets");
  if (root >= g.num_vertices) {
    throw std::out_of_range("bellman_ford: root out of range");
  }
  SsspStats scratch;
  SsspStats& st = stats != nullptr ? *stats : scratch;
  util::Timer total;

  const auto local_n = static_cast<std::size_t>(g.part.count(comm.rank()));
  const VertexId my_begin = g.part.begin(comm.rank());

  SsspResult result;
  result.dist.assign(local_n, kInfDistance);
  result.parent.assign(local_n, kNoVertex);

  std::vector<LocalId> active;
  std::vector<char> queued(local_n, 0);
  auto enqueue = [&](LocalId v) {
    if (queued[v] == 0) {
      queued[v] = 1;
      active.push_back(v);
    }
  };
  auto relax_local = [&](LocalId v, Weight cand, VertexId via) {
    if (cand < result.dist[v]) {
      result.dist[v] = cand;
      result.parent[v] = via;
      ++st.relax_applied;
      enqueue(v);
    }
  };

  if (g.part.owner(root) == comm.rank()) {
    const auto lr = g.part.local(root);
    result.dist[lr] = 0.0f;
    result.parent[lr] = root;
    enqueue(lr);
  }

  // Fusion-only routing: hub caching is a delta-stepping feature.
  Router<RelaxRequest> router(g, comm.rank(), result.dist, /*hub_cache=*/false,
                              config.local_fusion, st);
  std::vector<std::vector<RelaxRequest>> outbox(
      static_cast<std::size_t>(comm.size()));
  const auto send = [&outbox](int owner, const RelaxRequest& m) {
    outbox[static_cast<std::size_t>(owner)].push_back(m);
  };
  while (comm.allreduce_or(!active.empty())) {
    ++st.light_iterations;  // BF has a single phase class; reuse the counter
    std::vector<LocalId> frontier;
    frontier.swap(active);
    for (const auto v : frontier) queued[v] = 0;

    for (const auto v : frontier) {
      const Weight d = result.dist[v];
      const VertexId via = my_begin + v;
      for (std::uint64_t e = g.csr.edges_begin(v); e < g.csr.edges_end(v);
           ++e) {
        router.route(g.csr.dst(e), d + g.csr.weight(e), via, relax_local,
                     send);
      }
    }
    exchange(comm, g.part, outbox, config.coalesce, config.hierarchical_group,
             st, relax_local);
  }

  st.total_seconds = total.seconds();
  return result;
}

}  // namespace g500::core
