#include "dyn/repair.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace g500::dyn {

using graph::kInfDistance;
using graph::kNoVertex;
using graph::LocalId;
using graph::VertexId;

namespace {

struct ChildRecord {
  VertexId parent = 0;
  VertexId child = 0;
};
static_assert(std::is_trivially_copyable_v<ChildRecord>);

}  // namespace

void incremental_sssp_repair(simmpi::Comm& comm, const graph::DistGraph& g,
                             VertexId root, const CommitSummary& commit,
                             core::SsspResult& labels,
                             const core::SsspConfig& config,
                             RepairStats* stats) {
  const int P = comm.size();
  const auto local_n = static_cast<std::size_t>(g.part.count(comm.rank()));
  const VertexId my_begin = g.part.begin(comm.rank());
  if (labels.dist.size() != local_n || labels.parent.size() != local_n) {
    throw std::invalid_argument(
        "incremental_sssp_repair: labels do not match the owned range");
  }
  RepairStats local_stats;
  RepairStats& rs = stats != nullptr ? *stats : local_stats;

  // 1. Suspects: the pre-update tree edge into src ran over a removed or
  // increased copy, so src's label may no longer be attainable.
  std::vector<std::uint8_t> invalid(local_n, 0);
  std::vector<LocalId> frontier;
  for (const auto& s : commit.suspects) {
    const auto ls = static_cast<LocalId>(s.src - my_begin);
    if (labels.parent[ls] == s.dst && invalid[ls] == 0) {
      invalid[ls] = 1;
      frontier.push_back(ls);
    }
  }
  rs.suspects = comm.allreduce_sum(static_cast<std::uint64_t>(frontier.size()));

  // 2. Invalidate every tree descendant of a suspect.  Build the child
  // index once (each vertex reports itself to its parent's owner), then
  // propagate down the pre-update tree in frontier waves.
  std::vector<std::vector<ChildRecord>> child_out(static_cast<std::size_t>(P));
  for (LocalId v = 0; v < static_cast<LocalId>(local_n); ++v) {
    const VertexId gv = my_begin + v;
    const VertexId p = labels.parent[v];
    if (p == kNoVertex || p == gv) continue;  // unreachable or the root
    child_out[static_cast<std::size_t>(g.part.owner(p))].push_back(
        ChildRecord{p, gv});
  }
  std::vector<ChildRecord> child_in = comm.alltoallv(child_out);
  std::sort(child_in.begin(), child_in.end(),
            [](const ChildRecord& a, const ChildRecord& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.child < b.child;
            });
  std::vector<std::uint64_t> child_begin(local_n + 1, 0);
  for (const auto& rec : child_in) {
    ++child_begin[static_cast<LocalId>(rec.parent - my_begin) + 1];
  }
  for (std::size_t i = 1; i <= local_n; ++i) child_begin[i] += child_begin[i - 1];

  while (comm.allreduce_sum(static_cast<std::uint64_t>(frontier.size())) > 0) {
    ++rs.invalidation_rounds;
    std::vector<std::vector<VertexId>> out(static_cast<std::size_t>(P));
    for (const auto x : frontier) {
      for (std::uint64_t i = child_begin[x]; i < child_begin[x + 1]; ++i) {
        const VertexId c = child_in[i].child;
        out[static_cast<std::size_t>(g.part.owner(c))].push_back(c);
      }
    }
    const std::vector<VertexId> in = comm.alltoallv(out);
    frontier.clear();
    for (const auto c : in) {
      const auto lc = static_cast<LocalId>(c - my_begin);
      if (invalid[lc] == 0) {
        invalid[lc] = 1;
        frontier.push_back(lc);
      }
    }
  }

  // 3. Seed the repair: every finite-distance neighbor of an invalidated
  // vertex (the cone's rim re-offers inward) plus the owned endpoints of
  // inserted/decreased edges.  Invalidated labels reset to infinity first
  // so a seed is never queued at an unattainable label.
  std::vector<std::vector<VertexId>> seed_out(static_cast<std::size_t>(P));
  std::uint64_t invalidated_local = 0;
  for (LocalId v = 0; v < static_cast<LocalId>(local_n); ++v) {
    if (invalid[v] == 0) continue;
    ++invalidated_local;
    for (std::uint64_t e = g.csr.edges_begin(v); e < g.csr.edges_end(v); ++e) {
      const VertexId y = g.csr.dst(e);
      seed_out[static_cast<std::size_t>(g.part.owner(y))].push_back(y);
    }
    labels.dist[v] = kInfDistance;
    labels.parent[v] = kNoVertex;
  }
  rs.invalidated = comm.allreduce_sum(invalidated_local);
  for (auto& box : seed_out) {
    std::sort(box.begin(), box.end());
    box.erase(std::unique(box.begin(), box.end()), box.end());
  }
  const std::vector<VertexId> seed_in = comm.alltoallv(seed_out);

  std::vector<std::uint8_t> seeded(local_n, 0);
  core::WarmStart warm;
  for (const auto y : seed_in) {
    const auto ly = static_cast<LocalId>(y - my_begin);
    if (invalid[ly] == 0 && labels.dist[ly] != kInfDistance &&
        seeded[ly] == 0) {
      seeded[ly] = 1;
      warm.seeds.push_back(ly);
    }
  }
  for (const auto lv : commit.decrease_seeds) {
    if (invalid[lv] == 0 && labels.dist[lv] != kInfDistance &&
        seeded[lv] == 0) {
      seeded[lv] = 1;
      warm.seeds.push_back(lv);
    }
  }
  std::sort(warm.seeds.begin(), warm.seeds.end());
  rs.seeds = comm.allreduce_sum(static_cast<std::uint64_t>(warm.seeds.size()));

  // 4. Run the existing engine from the warm labels to quiescence.
  warm.dist = labels.dist;
  warm.parent = labels.parent;
  core::RunControl control;
  control.warm = &warm;
  labels = core::delta_stepping(comm, g, root, config, &rs.sssp, control);
}

}  // namespace g500::dyn
