// Deterministic simulated-clock workload for the analytics service.
//
// Time is a virtual tick counter, not the wall clock, so a (config, seed)
// pair always produces the identical query trace — on every rank of an
// SPMD run and across repeated runs.  The model is the standard open-loop
// serving workload: arrivals per tick are Poisson(lambda) (the stream
// does not wait for answers), sources follow a Zipf popularity law over a
// fixed root universe (rank 0 of the universe is the most popular), and
// targets are uniform over the vertex range.  A configurable fraction of
// queries asks for the nearest of the service's facility set instead of a
// point-to-point distance.
//
// YCSB-style mixed driver: a second query class — whole-graph or
// single-pair analytics jobs drawn from the kernel registry
// (serve/kernels.hpp) — arrives interleaved with the distance reads at
// its own rate (analytics_fraction of the arrival stream, kernels picked
// by weight) and carries its own per-class deadline, mirroring the mixed
// read/scan drivers used to stress key-value stores.  When
// analytics_fraction == 0 the generator consumes exactly the pre-mixed
// random stream, so existing distance-only traces are unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace g500::serve {

enum class QueryKind : std::uint8_t {
  kPointToPoint,     ///< distance from `root` to `target`
  kNearestFacility,  ///< distance from the nearest configured facility
  kAnalytics,        ///< run an analytics kernel (see `Query::kernel`)
};

/// The analytics kernels the service can run (serve/kernels.hpp holds the
/// registry; the enum lives here so queries can name a kernel without the
/// workload depending on the runners).
enum class AnalyticsKernel : std::uint8_t {
  kPageRank,      ///< whole-graph PageRank (core::pagerank)
  kKCore,         ///< whole-graph k-core decomposition (core::kcore)
  kComponents,    ///< whole-graph connected components (core::connected_components)
  kReachability,  ///< single-pair reachability (BFS, oracle-short-circuited)
};
inline constexpr std::size_t kNumAnalyticsKernels = 4;

/// One distance query.  Ids are assigned in arrival order by the trace
/// generator; the arrival tick is when the query enters the admission
/// queue.
struct Query {
  std::uint64_t id = 0;
  std::uint64_t arrival_tick = 0;
  QueryKind kind = QueryKind::kPointToPoint;
  graph::VertexId root = 0;    ///< source vertex (ignored for kNearestFacility)
  graph::VertexId target = 0;  ///< vertex whose distance is requested
  /// Absolute tick by which the caller needs the answer (0 = no deadline).
  /// A query still queued at this tick completes with
  /// Outcome::kDeadlineExceeded instead of aging silently.
  std::uint64_t deadline_tick = 0;
  /// Kernel to run when kind == kAnalytics (root/target parameterize
  /// kReachability; the whole-graph kernels ignore them).
  AnalyticsKernel kernel = AnalyticsKernel::kPageRank;
};

struct WorkloadConfig {
  std::uint64_t seed = 0x5e21;
  std::uint64_t ticks = 256;        ///< horizon of the arrival process
  double arrivals_per_tick = 4.0;   ///< Poisson lambda per tick
  double zipf_s = 1.1;              ///< popularity exponent (0 = uniform)
  double nearest_fraction = 0.0;    ///< share of kNearestFacility queries
  /// Per-query deadline budget: every generated query gets
  /// deadline_tick = arrival_tick + deadline_ticks (0 = no deadlines).
  std::uint64_t deadline_ticks = 0;

  // ---- analytics class (YCSB-style mix) -------------------------------
  /// Share of arrivals that are analytics jobs instead of distance reads.
  /// 0 keeps the generator byte-identical to the distance-only driver.
  double analytics_fraction = 0.0;
  /// Relative draw weights over {pagerank, kcore, components,
  /// reachability}; empty = uniform.  Must have kNumAnalyticsKernels
  /// entries when non-empty, each >= 0, with a positive sum.
  std::vector<double> kernel_weights;

  /// Popularity-ranked root universe (index 0 = most popular).  Must be
  /// non-empty unless nearest_fraction == 1.
  std::vector<graph::VertexId> roots;
  /// Targets are drawn uniformly from [0, num_vertices).
  graph::VertexId num_vertices = 0;
};

/// Pure function of its config: arrivals(t) and trace() depend on nothing
/// else, so every rank can generate the workload locally and agree on it.
class Workload {
 public:
  explicit Workload(WorkloadConfig config);

  [[nodiscard]] const WorkloadConfig& config() const noexcept {
    return config_;
  }

  /// Queries arriving at `tick`, in arrival order.  Ids are globally
  /// sequential across ticks (precomputed arrival counts make them a pure
  /// function of (seed, tick) too).
  [[nodiscard]] std::vector<Query> arrivals(std::uint64_t tick) const;

  /// The whole trace, all ticks concatenated in arrival order.
  [[nodiscard]] std::vector<Query> trace() const;

 private:
  [[nodiscard]] std::uint64_t poisson_count(std::uint64_t tick) const;

  WorkloadConfig config_;
  std::vector<double> zipf_cdf_;         ///< over config_.roots
  std::vector<double> kernel_cdf_;       ///< over the analytics kernels
  std::vector<std::uint64_t> id_base_;   ///< first query id of each tick
};

}  // namespace g500::serve
