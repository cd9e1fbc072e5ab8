#include "serve/kernels.hpp"

#include <stdexcept>

#include "core/components.hpp"
#include "core/kcore.hpp"
#include "core/remote.hpp"
#include "util/timer.hpp"

namespace g500::serve {

std::string_view kernel_name(AnalyticsKernel kernel) {
  switch (kernel) {
    case AnalyticsKernel::kPageRank:
      return "pagerank";
    case AnalyticsKernel::kKCore:
      return "kcore";
    case AnalyticsKernel::kComponents:
      return "components";
    case AnalyticsKernel::kReachability:
      return "reachability";
  }
  return "unknown";
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

namespace {

/// Digest a gathered global result vector (trivially copyable element
/// bytes in vertex order — what a sequential reference hashes too).
template <typename T>
std::uint64_t digest_vector(const std::vector<T>& full) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a(full.data(), full.size() * sizeof(T));
}

}  // namespace

AnalyticsOutcome KernelRegistry::run(simmpi::Comm& comm,
                                     const graph::DistGraph& g,
                                     AnalyticsKernel kernel,
                                     graph::VertexId root,
                                     graph::VertexId target,
                                     LandmarkOracle* oracle,
                                     std::uint64_t iter_budget) const {
  if (iter_budget != 0) {
    throw std::invalid_argument(
        "KernelRegistry::run: no kernel takes an iteration budget");
  }
  AnalyticsOutcome out;
  util::Timer timer;
  switch (kernel) {
    case AnalyticsKernel::kPageRank: {
      core::PageRankStats stats;
      const std::vector<double> mine =
          core::pagerank(comm, g, config_.pagerank, &stats);
      const std::vector<double> full = comm.allgatherv(mine);
      out.digest = digest_vector(full);
      double mass = 0.0;
      for (const auto v : full) mass += v;
      out.value = mass;
      out.rounds = stats.iterations;
      out.items_sent = stats.contribs_gathered;
      out.items_applied = stats.iterations * g.csr.num_edges();
      break;
    }
    case AnalyticsKernel::kKCore: {
      core::KCoreStats stats;
      const std::vector<std::uint32_t> mine = core::kcore(comm, g, &stats);
      const std::vector<std::uint32_t> full = comm.allgatherv(mine);
      out.digest = digest_vector(full);
      out.value = static_cast<double>(stats.max_core);
      out.rounds = stats.rounds;
      out.items_sent = stats.decrements_sent;
      out.items_applied = stats.decrements_applied;
      break;
    }
    case AnalyticsKernel::kComponents: {
      core::ComponentsStats stats;
      const std::vector<graph::VertexId> mine =
          core::connected_components(comm, g, &stats);
      const std::vector<graph::VertexId> full = comm.allgatherv(mine);
      out.digest = digest_vector(full);
      std::uint64_t components = 0;
      for (std::size_t v = 0; v < full.size(); ++v) {
        if (full[v] == v) ++components;
      }
      out.value = static_cast<double>(components);
      out.rounds = stats.rounds;
      out.items_sent = stats.labels_sent;
      out.items_applied = stats.labels_applied;
      break;
    }
    case AnalyticsKernel::kReachability: {
      bool reachable = false;
      bool settled = false;
      if (oracle != nullptr) {
        // One collective row fetch; a landmark that reaches exactly one
        // endpoint proves disconnection, an exact verdict proves the
        // answer outright — either way the BFS wave is skipped.
        const auto rows = oracle->landmark_distances({root, target});
        const auto bounds = oracle->bounds(rows[0], rows[1], root, target);
        if (bounds.unreachable) {
          reachable = false;
          settled = true;
          out.oracle_short_circuit = true;
        } else if (bounds.exact) {
          reachable = true;  // exact and not unreachable => finite ub
          settled = true;
          out.oracle_short_circuit = true;
        }
      }
      if (!settled) {
        core::BfsStats stats;
        const core::BfsResult mine =
            core::bfs(comm, g, root, config_.bfs, &stats);
        const std::vector<std::uint32_t> level = core::fetch_values(
            comm, g.part, std::vector<graph::VertexId>{target}, mine.level);
        reachable = level[0] != core::BfsResult::kNoLevel;
        out.rounds = stats.rounds;
        out.items_sent = stats.messages_sent;
        out.items_applied = stats.edges_scanned;
      }
      out.value = reachable ? 1.0 : 0.0;
      const std::uint64_t canon[3] = {root, target,
                                      reachable ? std::uint64_t{1} : 0};
      out.digest = fnv1a(canon, sizeof(canon));
      break;
    }
  }
  out.seconds = timer.seconds();
  return out;
}

}  // namespace g500::serve
