#include "serve/driver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/checkpoint.hpp"
#include "util/timer.hpp"

namespace g500::serve {

namespace {

/// Outcome counters from the service's merged metrics (what both drivers
/// share; the resilient one layers the retry audit on top).
void fill_outcomes(AvailabilityStats& a, const ServiceMetrics& m) {
  a.served = m.answered;
  a.degraded = m.degraded;
  a.deadline_exceeded = m.deadline_exceeded;
  a.failed = m.failed_queries;
  a.shed = m.shed;
}

}  // namespace

ServingRunReport run_workload(simmpi::Comm& comm, const graph::DistGraph& g,
                              const ServeConfig& config,
                              const Workload& workload, bool keep_answers,
                              DistanceService* service) {
  std::optional<DistanceService> own;
  if (service == nullptr) {
    own.emplace(comm, g, config);
    service = &*own;
  } else {
    service->reset_metrics();
  }

  ServingRunReport report;
  comm.barrier();
  const std::uint64_t bytes_before = comm.stats().total_bytes();
  util::Timer timer;
  const std::uint64_t horizon = workload.config().ticks;
  for (std::uint64_t t = 0; t < horizon; ++t) {
    for (const auto& q : workload.arrivals(t)) (void)service->submit(q);
    auto answers = service->tick(t);
    if (keep_answers) {
      report.answers.insert(report.answers.end(), answers.begin(),
                            answers.end());
    }
  }
  std::uint64_t end_tick = horizon;
  auto tail = service->drain(horizon, &end_tick);
  if (keep_answers) {
    report.answers.insert(report.answers.end(), tail.begin(), tail.end());
  }
  report.wall_seconds = comm.allreduce_max(timer.seconds());
  report.ticks_run = end_tick;
  report.graph_version = service->graph_version();
  report.metrics = service->metrics();
  // Global work totals (the per-rank metrics only hold this rank's share).
  // The byte delta is read before these reductions so they don't count
  // themselves.
  const std::uint64_t bytes_mine = comm.stats().total_bytes() - bytes_before;
  report.wire_bytes = comm.allreduce_sum(bytes_mine);
  report.relax_generated =
      comm.allreduce_sum(report.metrics.wave_relax_generated);
  report.relax_sent = comm.allreduce_sum(report.metrics.wave_relax_sent);
  report.pruned_expand =
      comm.allreduce_sum(report.metrics.wave_pruned_expand);
  report.pruned_apply = comm.allreduce_sum(report.metrics.wave_pruned_apply);
  fill_outcomes(report.availability, report.metrics);
  return report;
}

ServingRunReport run_workload_resilient(
    simmpi::World& world,
    const std::function<graph::DistGraph(simmpi::Comm&)>& build_graph,
    const ServeConfig& config, const Workload& workload,
    const ResilientServeOptions& options) {
  const int P = world.size();
  const std::uint64_t horizon = workload.config().ticks;
  const std::vector<Query> trace = workload.trace();

  // ---- driver-owned "stable storage" ---------------------------------
  // Everything that must survive a crashed World::run.  In-run writers:
  // each rank touches only its own per-rank slot, rank 0 alone touches
  // the shared harvest state, and both only between collectives — an
  // injected fault fires at collective entry, so nothing here is ever
  // torn, and world.run joins its threads before rethrowing.
  std::vector<core::CheckpointState> snapshots(static_cast<std::size_t>(P));
  std::vector<OracleSliceStore> own_stores;
  std::vector<OracleSliceStore>* stores = options.oracle_stores;
  if (stores == nullptr) {
    own_stores.resize(static_cast<std::size_t>(P));
    stores = &own_stores;
  } else if (stores->size() != static_cast<std::size_t>(P)) {
    stores->assign(static_cast<std::size_t>(P), OracleSliceStore{});
  }

  struct RankSlot {
    ServiceMetrics metrics;  ///< as of this attempt's last completed tick
    double wall_seconds = 0.0;
  };
  std::vector<RankSlot> slots(static_cast<std::size_t>(P));
  std::vector<ServiceMetrics> accum(static_cast<std::size_t>(P));
  std::vector<double> accum_wall(static_cast<std::size_t>(P), 0.0);

  FaultLedger ledger;
  BreakerStatus breaker;
  std::vector<graph::VertexId> abandoned;
  bool has_resume = false;
  graph::VertexId resume_key = graph::kNoVertex;
  std::uint64_t resume_tick = 0;
  std::uint64_t next_resume_tick = 0;  ///< rank-0 written, per harvested tick
  std::uint64_t end_tick = horizon;    ///< rank-0 written on a clean finish
  bool oracle_restored = false;        ///< rank-0 written after construction
  std::uint64_t final_version = config.graph_version;  ///< rank-0 written

  // Query fate across attempts, indexed by the trace's global ids.  The
  // shed marks come from the shed log, so records dropped at the
  // shed-log cap can (rarely) let a crashed attempt's shed query be
  // re-admitted and answered — availability errs high, never low.
  std::vector<std::uint8_t> resolved(trace.size(), 0);
  std::vector<std::uint8_t> shed_marks(trace.size(), 0);

  // Per-key retry ledger (the facility wave's key is kNoVertex).
  std::vector<std::pair<graph::VertexId, int>> wave_failures;

  ServingRunReport report;
  AvailabilityStats avail;
  avail.attempts = 0;
  std::uint64_t retries = 0;
  const std::uint64_t bytes_before = world.aggregate_stats().total_bytes();

  const int max_attempts = std::max(1, options.max_attempts);
  bool finished = false;
  while (!finished && avail.attempts < static_cast<std::uint64_t>(max_attempts)) {
    ++avail.attempts;
    for (auto& s : slots) s = RankSlot{};
    std::size_t shed_seen = 0;  ///< rank-0 cursor into this attempt's shed log
    ledger.wave_open = false;
    bool attempt_failed = false;
    try {
      world.run([&](simmpi::Comm& comm) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        const graph::DistGraph g = build_graph(comm);
        FaultContext ctx;
        ctx.snapshot = &snapshots[rank];
        ctx.oracle_store = &(*stores)[rank];
        ctx.has_resume = has_resume;
        ctx.resume_key = resume_key;
        ctx.abandoned = abandoned;
        ctx.breaker = breaker;
        ctx.ledger = &ledger;
        DistanceService service(comm, g, config, &ctx);
        if (comm.rank() == 0 && service.oracle() != nullptr &&
            service.oracle()->restored_from_store()) {
          oracle_restored = true;
        }
        // Re-admit the backlog: queries an earlier attempt admitted (and
        // counted) but never completed or shed.  Pure function of the
        // trace and the driver's fate arrays, so every rank agrees.
        std::vector<Query> backlog;
        for (const auto& q : trace) {
          if (q.arrival_tick >= resume_tick) break;
          if (resolved[q.id] == 0 && shed_marks[q.id] == 0) {
            backlog.push_back(q);
          }
        }
        service.restore_backlog(backlog);

        util::Timer timer;
        auto harvest = [&](std::uint64_t t, const std::vector<Answer>& answers) {
          slots[rank].metrics = service.metrics();
          slots[rank].wall_seconds = timer.seconds();
          if (comm.rank() != 0) return;
          for (const auto& a : answers) {
            if (a.id < resolved.size()) resolved[a.id] = 1;
            if (options.keep_answers) report.answers.push_back(a);
          }
          const auto& log = service.shed_log();
          for (; shed_seen < log.size(); ++shed_seen) {
            const auto id = log[shed_seen].id;
            if (id < shed_marks.size()) shed_marks[id] = 1;
          }
          ledger.breaker = service.breaker();
          next_resume_tick = t + 1;
        };

        for (std::uint64_t t = resume_tick; t < horizon; ++t) {
          for (const auto& q : workload.arrivals(t)) (void)service.submit(q);
          harvest(t, service.tick(t));
        }
        std::uint64_t t = std::max(resume_tick, horizon);
        while (service.pending() > 0) {
          harvest(t, service.tick(t, /*flush=*/true));
          ++t;
        }
        // The run completed cleanly: persist the exact point cache next
        // to the oracle slices so the next run over this graph adopts
        // both (each rank writes only its own slot, after the last
        // collective, so a crash can never tear it).
        service.persist_point_cache((*stores)[rank]);
        slots[rank].metrics = service.metrics();  // pick up the persist count
        if (comm.rank() == 0) {
          end_tick = t;
          final_version = service.graph_version();
        }
      });
      finished = true;
    } catch (const core::CheckpointError&) {
      // Snapshot bit rot: nothing in the slots can be trusted; the
      // interrupted wave restarts from scratch.
      for (auto& s : snapshots) s.clear();
      has_resume = false;
      attempt_failed = true;
    } catch (...) {
      attempt_failed = true;
    }

    // Fold this attempt's completed-tick window into the running totals
    // (counters sum, histograms merge — ServiceMetrics::merge).
    for (std::size_t r = 0; r < slots.size(); ++r) {
      accum[r].merge(slots[r].metrics);
      accum_wall[r] += slots[r].wall_seconds;
    }
    resume_tick = next_resume_tick;
    if (!attempt_failed) break;

    // ---- attribute the failure and pace the retry --------------------
    ++avail.wave_retries;
    breaker = ledger.breaker;  // latest harvested tick's state
    const double delay = config.fault.backoff.delay(++retries);
    avail.backoff_seconds += delay;
    // One tick of replay plus the virtual backoff, rounded up.
    avail.recovery_ticks +=
        1 + static_cast<std::uint64_t>(std::ceil(delay));
    if (ledger.wave_open) {
      auto it = std::find_if(
          wave_failures.begin(), wave_failures.end(),
          [&](const auto& e) { return e.first == ledger.wave_key; });
      if (it == wave_failures.end()) {
        wave_failures.emplace_back(ledger.wave_key, 0);
        it = std::prev(wave_failures.end());
      }
      if (++it->second >= config.fault.max_wave_attempts) {
        abandoned.push_back(ledger.wave_key);
        ++avail.waves_abandoned;
        has_resume = false;
        for (auto& s : snapshots) s.clear();
      } else if (ledger.wave_key != graph::kNoVertex) {
        // The crashed wave resumes from its last checkpointed epoch (the
        // facility multi-wave has no checkpointed variant — it simply
        // reruns).
        has_resume = true;
        resume_key = ledger.wave_key;
      }
      if (config.fault.breaker_threshold > 0) {
        ++breaker.consecutive_failures;
        if (breaker.state != BreakerState::kOpen &&
            breaker.consecutive_failures >= config.fault.breaker_threshold) {
          breaker.state = BreakerState::kOpen;
          breaker.opened_tick = resume_tick;
          ++avail.breaker_opened;
        }
      }
    }
  }

  // ---- finalize ------------------------------------------------------
  report.metrics = accum[0];
  report.ticks_run = finished ? end_tick : resume_tick;
  report.graph_version = final_version;
  report.wall_seconds =
      *std::max_element(accum_wall.begin(), accum_wall.end());
  report.wire_bytes = world.aggregate_stats().total_bytes() - bytes_before;
  for (const auto& m : accum) {
    report.relax_generated += m.wave_relax_generated;
    report.relax_sent += m.wave_relax_sent;
    report.pruned_expand += m.wave_pruned_expand;
    report.pruned_apply += m.wave_pruned_apply;
  }
  fill_outcomes(avail, report.metrics);
  if (!finished) {
    // Retry budget exhausted: whatever never completed is a failure.
    for (const auto& q : trace) {
      if (resolved[q.id] == 0 && shed_marks[q.id] == 0) ++avail.failed;
    }
  }
  avail.breaker_half_opened = report.metrics.breaker_half_opened;
  avail.breaker_closed = report.metrics.breaker_closed;
  avail.oracle_restored = oracle_restored;
  report.availability = avail;
  return report;
}

}  // namespace g500::serve
