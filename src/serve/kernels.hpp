// Analytics kernel registry for the serving layer.
//
// The service answers more than distance reads: this registry maps each
// serve::AnalyticsKernel to a distributed runner over the shared graph
// substrate (GBBS-style — one bucketing/frontier toolkit, many kernels):
//
//   * kPageRank     — core::pagerank, iteration-count/L1-residual stop;
//   * kKCore        — core::kcore bucketed peeling;
//   * kComponents   — core::connected_components min-label propagation;
//   * kReachability — single-pair: the landmark oracle's bounds settle
//                     the pair without any wave when a landmark proves
//                     disconnection (or exact reachability), otherwise
//                     one core::bfs wave decides it.
//
// Every runner is collective (SPMD: all ranks in lockstep) and finishes
// by reducing a *validation digest* — FNV-1a over the canonical global
// result bytes in vertex order — so a caller can compare the distributed
// answer bit-for-bit against a sequential reference.  Cost counters come
// back in a kernel-agnostic shape (rounds / items_sent / items_applied)
// so the service's per-class accounting stays complete for every kernel.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/bfs.hpp"
#include "core/pagerank.hpp"
#include "graph/builder.hpp"
#include "serve/oracle.hpp"
#include "serve/workload.hpp"
#include "simmpi/comm.hpp"

namespace g500::serve {

/// Knobs for the registry's runners.
struct AnalyticsConfig {
  core::PageRankConfig pagerank;
  core::BfsConfig bfs;  ///< reachability waves
};

/// One finished analytics job.
struct AnalyticsOutcome {
  /// Headline scalar: retained PageRank mass, the graph's degeneracy
  /// (max coreness), the component count, or 0/1 reachability.
  double value = 0.0;
  /// FNV-1a digest of the canonical global result (identical on every
  /// rank; bit-comparable against a sequential reference).
  std::uint64_t digest = 0;
  /// The oracle settled reachability without dispatching a BFS wave.
  bool oracle_short_circuit = false;
  /// Kernel-agnostic cost: collective rounds/iterations (identical on
  /// every rank) and this rank's share of wire items sent/applied.
  std::uint64_t rounds = 0;
  std::uint64_t items_sent = 0;
  std::uint64_t items_applied = 0;
  double seconds = 0.0;
};

[[nodiscard]] std::string_view kernel_name(AnalyticsKernel kernel);

/// FNV-1a over a byte span (exposed so benches hash sequential references
/// exactly the way the runners hash distributed results).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t seed = 0xcbf29ce484222325ull);

class KernelRegistry {
 public:
  explicit KernelRegistry(AnalyticsConfig config) : config_(config) {}

  [[nodiscard]] const AnalyticsConfig& config() const noexcept {
    return config_;
  }

  /// Run `kernel` over `g`.  Collective: every rank must call with
  /// identical arguments.  `root`/`target` parameterize kReachability
  /// (whole-graph kernels ignore them).  `oracle` (nullable) provides the
  /// reachability short-circuit; its landmark_distances call is itself
  /// collective.  `iter_budget` must be 0 (std::invalid_argument
  /// otherwise): every kernel runs to completion.  The parameter stays
  /// only for existing callers.
  [[nodiscard]] AnalyticsOutcome run(simmpi::Comm& comm,
                                     const graph::DistGraph& g,
                                     AnalyticsKernel kernel,
                                     graph::VertexId root,
                                     graph::VertexId target,
                                     LandmarkOracle* oracle,
                                     std::uint64_t iter_budget) const;

 private:
  AnalyticsConfig config_;
};

}  // namespace g500::serve
