// Open-loop workload driver: feed a deterministic serve::Workload through
// a DistanceService tick by tick, then drain, and collect the SLO report
// a serving benchmark needs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/builder.hpp"
#include "serve/fault.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "simmpi/comm.hpp"

namespace g500::serve {

/// Outcome of one workload run on one rank.  Counters and answers are
/// identical across ranks; wall_seconds is the max over ranks (agreed via
/// allreduce at the end of the run).
struct ServingRunReport {
  ServiceMetrics metrics;
  std::vector<Answer> answers;  ///< kept only when requested
  std::uint64_t ticks_run = 0;  ///< arrival horizon plus the drain tail
  double wall_seconds = 0.0;    ///< serving loop only (graph build excluded)
  /// Graph version the service ended the run on (every answer carries the
  /// version it was computed against; this is the final one).
  std::uint64_t graph_version = 0;

  /// How every query of the workload ultimately ended plus the
  /// retry/breaker audit trail.  run_workload fills the outcome counters
  /// (one attempt, no faults); run_workload_resilient fills everything.
  AvailabilityStats availability;

  /// Wire bytes all ranks moved during the serving loop (comm-stats delta
  /// summed over ranks) — the cost side of the oracle's pruning ledger.
  std::uint64_t wire_bytes = 0;
  /// Engine work summed over ranks and over every wave of the run.
  std::uint64_t relax_generated = 0;
  std::uint64_t relax_sent = 0;
  std::uint64_t pruned_expand = 0;
  std::uint64_t pruned_apply = 0;

  [[nodiscard]] double throughput_qps() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(metrics.answered) / wall_seconds
               : 0.0;
  }
};

/// Run `workload` through a fresh service built from `config`.  SPMD:
/// call from every rank.  When `service` is non-null it is used instead
/// of a fresh one (warm-cache runs); its metrics are reset first.
[[nodiscard]] ServingRunReport run_workload(simmpi::Comm& comm,
                                            const graph::DistGraph& g,
                                            const ServeConfig& config,
                                            const Workload& workload,
                                            bool keep_answers = false,
                                            DistanceService* service = nullptr);

/// Knobs of the fault-tolerant workload driver.
struct ResilientServeOptions {
  bool keep_answers = false;

  /// Caller-owned oracle persistence slots, one per rank (nullptr = the
  /// driver uses private slots that die with the call).  A first run
  /// populates them; a later run over the same graph/config adopts them
  /// and skips the oracle precompute waves entirely.
  std::vector<OracleSliceStore>* oracle_stores = nullptr;
};

/// Fault-tolerant variant of run_workload: owns the World::run retry loop
/// (the simulated machine cannot survive a fault in place), so it must be
/// called from OUTSIDE World::run.  An attempt that dies of an injected
/// fault (simmpi::InjectedCrashError, simmpi::CorruptionError or
/// core::CheckpointError) restarts the world, rebuilds the graph via
/// `build_graph`, re-admits the unresolved backlog, and resumes the tick
/// loop from the first un-harvested tick; the wave that was in flight
/// resumes from its last checkpoint (bit-identical to an undisturbed
/// run).  Retries are paced by a backoff seeded from the workload seed,
/// keys that exhaust their wave attempts are abandoned (their queries
/// degrade or fail), crash streaks drive the circuit breaker, and after
/// a fixed number of launches every unresolved query counts as failed
/// (the attempt and retry bounds are constants in driver.cpp).  Any
/// other exception — a misconfigured service, say — is rethrown at once.
/// The returned metrics/availability merge every attempt; wire_bytes
/// includes the graph rebuild traffic of each attempt.
[[nodiscard]] ServingRunReport run_workload_resilient(
    simmpi::World& world,
    const std::function<graph::DistGraph(simmpi::Comm&)>& build_graph,
    const ServeConfig& config, const Workload& workload,
    const ResilientServeOptions& options = {});

}  // namespace g500::serve
