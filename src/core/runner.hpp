// Official Graph 500 SSSP benchmark protocol.
//
// A submission runs: construct the graph, sample 64 search keys uniformly
// among vertices with degree >= 1, run SSSP from each, validate every
// result, and report TEPS = input-edge-count / time per root with the
// harmonic mean as the headline number.  This runner reproduces that
// protocol on the simulated ranks.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"
#include "util/backoff.hpp"

namespace g500::core {

enum class Algorithm {
  kDeltaStepping,       ///< the SSSP kernel (paper's contribution)
  kAsyncDeltaStepping,  ///< barrier-free variant over the aggregator
  kBellmanFord,         ///< SSSP baseline
  kBfs,  ///< the Graph 500 BFS kernel (hop distances, no weights)
};

/// Search-key sampling seed of the protocol, shared by every harness that
/// samples the runner's roots.
inline constexpr std::uint64_t kRootSeed = 0x9500;

struct RunnerOptions {
  int num_roots = 64;
  bool validate = true;
  Algorithm algorithm = Algorithm::kDeltaStepping;
  SsspConfig config;

  /// Resilient protocol only (run_benchmark_resilient): total attempts a
  /// root gets before it degrades into an invalid report entry (min 1).
  int max_attempts = 3;
  /// Resilient protocol only: bucket epochs between the per-rank snapshots
  /// a retried root resumes from (RunControl::checkpoint_interval;
  /// 0 = every retry restarts the root from scratch).
  std::uint64_t checkpoint_interval = 0;
  /// Virtual delay charged per retry, mirroring a real machine's restart
  /// latency: the seeded exponential schedule shared with bench_recovery
  /// and the serving layer's wave retry.  Recorded in
  /// BenchmarkReport::backoff_seconds, not slept; a zero base charges
  /// nothing.
  util::BackoffPolicy retry_backoff{.base_seconds = 0.0};
};

/// Outcome of one root.
struct RootRun {
  graph::VertexId root = 0;
  double seconds = 0.0;
  double teps = 0.0;
  bool valid = true;
  std::uint64_t reachable = 0;
  int attempts = 1;       ///< World::run launches this root consumed
  bool recovered = false; ///< completed by resuming from a checkpoint
};

struct BenchmarkReport {
  graph::VertexId num_vertices = 0;
  std::uint64_t num_input_edges = 0;
  std::uint64_t num_directed_edges = 0;
  int num_ranks = 0;

  std::vector<RootRun> runs;
  SsspStats stats;  ///< summed over ranks and roots

  bool all_valid = true;
  double harmonic_mean_teps = 0.0;
  double mean_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;

  /// Resilient protocol only: roots that needed more than one attempt /
  /// were abandoned after RunnerOptions::max_attempts.
  int recovered_roots = 0;
  int failed_roots = 0;
  /// Virtual retry backoff charged across all attempts (not slept).
  double backoff_seconds = 0.0;
  /// Per-retry backoff actually charged, in order (jitter included) —
  /// the audit trail of the exponential schedule.
  std::vector<double> attempt_backoffs;

  /// Graph500-style summary block.
  void print(std::ostream& out) const;
};

/// Sample `count` distinct search keys with degree >= 1, identically on all
/// ranks.  Returns fewer if the graph has fewer eligible vertices.
[[nodiscard]] std::vector<graph::VertexId> sample_roots(
    simmpi::Comm& comm, const graph::DistGraph& g, int count,
    std::uint64_t seed);

/// Execute the protocol.  SPMD: call from every rank; the report is
/// identical on all ranks.
[[nodiscard]] BenchmarkReport run_benchmark(simmpi::Comm& comm,
                                            const graph::DistGraph& g,
                                            const RunnerOptions& options);

/// Reduce a per-rank SsspStats across ranks (collective).  Each field
/// combines by the rule its row in kSsspCounterFields or kSsspDoubleFields
/// (sssp_types.hpp) names.  The frontier histogram is the calling rank's
/// own: the engines that record it add the global frontier on every rank.
[[nodiscard]] SsspStats global_stats(simmpi::Comm& comm,
                                     const SsspStats& local);

/// Fault-tolerant variant of the protocol, driven from OUTSIDE World::run
/// so it can restart the world after a rank crash.  `build_graph` must be
/// deterministic — it is re-invoked on every attempt to rebuild each
/// rank's graph piece.  Roots run with checkpointing
/// (options.checkpoint_interval); when an attempt dies, the next one
/// resumes the interrupted root from the per-rank snapshots ("stable
/// storage" held by this driver) and the finished roots are not re-run.  A
/// root that still fails after max_attempts degrades into an invalid
/// report entry instead of sinking the benchmark.  Only injected faults
/// (simmpi::InjectedCrashError, simmpi::CorruptionError,
/// core::CheckpointError) are retried; any other exception, such as a
/// `build_graph` that rejects its input, is rethrown at once.
/// Delta-stepping only.
[[nodiscard]] BenchmarkReport run_benchmark_resilient(
    simmpi::World& world,
    const std::function<graph::DistGraph(simmpi::Comm&)>& build_graph,
    const RunnerOptions& options);

}  // namespace g500::core
