#include "core/components.hpp"

#include <algorithm>

#include "util/radix_sort.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::LocalId;
using graph::VertexId;

std::vector<VertexId> connected_components(simmpi::Comm& comm,
                                           const graph::DistGraph& g,
                                           ComponentsStats* stats) {
  ComponentsStats scratch;
  ComponentsStats& st = stats != nullptr ? *stats : scratch;
  util::Timer total;

  const int P = comm.size();
  const int rank = comm.rank();
  const auto local_n = static_cast<LocalId>(g.part.count(rank));
  const VertexId my_begin = g.part.begin(rank);

  std::vector<VertexId> label(local_n);
  for (LocalId v = 0; v < local_n; ++v) label[v] = my_begin + v;

  struct LabelMsg {
    VertexId target;
    VertexId label;
  };
  std::vector<std::vector<LabelMsg>> outbox(static_cast<std::size_t>(P));
  std::vector<LocalId> active;
  std::vector<char> queued(local_n, 0);
  auto enqueue = [&](LocalId v) {
    if (queued[v] == 0 && g.csr.degree(v) > 0) {
      queued[v] = 1;
      active.push_back(v);
    }
  };
  for (LocalId v = 0; v < local_n; ++v) enqueue(v);

  auto apply = [&](LocalId v, VertexId candidate) {
    if (candidate < label[v]) {
      label[v] = candidate;
      ++st.labels_applied;
      enqueue(v);
    }
  };

  while (comm.allreduce_or(!active.empty())) {
    ++st.rounds;
    std::vector<LocalId> frontier;
    frontier.swap(active);
    for (const auto v : frontier) queued[v] = 0;

    for (const auto v : frontier) {
      const VertexId mine = label[v];
      for (std::uint64_t e = g.csr.edges_begin(v); e < g.csr.edges_end(v);
           ++e) {
        const VertexId target = g.csr.dst(e);
        const int owner = g.part.owner(target);
        if (owner == rank) {
          apply(g.part.local(target), mine);
        } else {
          outbox[static_cast<std::size_t>(owner)].push_back(
              LabelMsg{target, mine});
        }
      }
    }
    // Coalesce: minimum label per target per round.
    for (auto& box : outbox) {
      util::keep_least(
          box, [](const LabelMsg& m) { return m.target; },
          [](const LabelMsg& a, const LabelMsg& b) { return a.label < b.label; });
      st.labels_sent += box.size();
    }
    const std::vector<LabelMsg> incoming = comm.alltoallv(outbox);
    for (auto& box : outbox) box.clear();
    for (const auto& msg : incoming) {
      apply(g.part.local(msg.target), msg.label);
    }
  }

  st.seconds = total.seconds();
  return label;
}

ComponentsSummary summarize_components(simmpi::Comm& comm,
                                       const graph::DistGraph& g,
                                       const std::vector<VertexId>& labels) {
  const int P = comm.size();
  const int rank = comm.rank();
  const auto local_n = static_cast<LocalId>(g.part.count(rank));
  const VertexId my_begin = g.part.begin(rank);

  ComponentsSummary summary;
  std::uint64_t representatives = 0;
  std::uint64_t isolated = 0;
  for (LocalId v = 0; v < local_n; ++v) {
    if (labels[v] == my_begin + v) {
      ++representatives;
      if (g.csr.degree(v) == 0) ++isolated;
    }
  }
  summary.num_components = comm.allreduce_sum(representatives);
  summary.isolated_vertices = comm.allreduce_sum(isolated);

  // Size of the largest component: ship per-label counts to the label's
  // owner (the representative's rank) and reduce there.
  struct Count {
    VertexId label;
    std::uint64_t count;
  };
  std::vector<VertexId> sorted(labels.begin(), labels.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::vector<Count>> outbox(static_cast<std::size_t>(P));
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    outbox[static_cast<std::size_t>(g.part.owner(sorted[i]))].push_back(
        Count{sorted[i], j - i});
    i = j;
  }
  const std::vector<Count> incoming = comm.alltoallv(outbox);
  std::vector<std::uint64_t> size_of(local_n, 0);
  for (const auto& c : incoming) {
    size_of[g.part.local(c.label)] += c.count;
  }
  std::uint64_t local_max = 0;
  for (const auto s : size_of) local_max = std::max(local_max, s);
  summary.largest_size = comm.allreduce_max(local_max);
  return summary;
}

}  // namespace g500::core
