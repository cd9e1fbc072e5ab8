#include "core/runner.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <stdexcept>

#include "core/async_delta_stepping.hpp"
#include "core/bellman_ford.hpp"
#include "core/bfs.hpp"
#include "core/delta_stepping.hpp"
#include "core/validate.hpp"
#include "simmpi/fault.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::VertexId;

std::vector<VertexId> sample_roots(simmpi::Comm& comm,
                                   const graph::DistGraph& g, int count,
                                   std::uint64_t seed) {
  std::vector<VertexId> roots;
  // An empty graph has no eligible keys (and no vertex 0 to probe below).
  if (count <= 0 || g.num_vertices == 0) return roots;
  util::SplitMix64 rng(seed);  // identical stream on every rank
  const std::uint64_t max_attempts =
      100 * static_cast<std::uint64_t>(count) + 1000;
  for (std::uint64_t attempt = 0;
       attempt < max_attempts && roots.size() < static_cast<std::size_t>(count);
       ++attempt) {
    const VertexId candidate = rng.next_below(g.num_vertices);
    if (std::find(roots.begin(), roots.end(), candidate) != roots.end()) {
      continue;
    }
    bool eligible_local = false;
    if (g.part.owner(candidate) == comm.rank()) {
      eligible_local = g.csr.degree(g.part.local(candidate)) > 0;
    }
    if (comm.allreduce_or(eligible_local)) roots.push_back(candidate);
  }
  return roots;
}

static_assert(std::ranges::all_of(kSsspCounterFields, [](const auto& f) {
  return f.rule == RankReduce::kSum || f.rule == RankReduce::kMean;
}));
static_assert(std::ranges::all_of(kSsspDoubleFields, [](const auto& f) {
  return f.rule == RankReduce::kMin || f.rule == RankReduce::kMax;
}));

SsspStats global_stats(simmpi::Comm& comm, const SsspStats& local) {
  std::vector<std::uint64_t> payload;
  for (const auto& f : kSsspCounterFields) payload.push_back(local.*f.member);
  const auto summed = comm.allreduce_vec<std::uint64_t>(
      payload, [](std::uint64_t a, std::uint64_t b) { return a + b; });

  SsspStats total;
  const auto P = static_cast<std::uint64_t>(comm.size());
  for (std::size_t i = 0; i < summed.size(); ++i) {
    const auto& f = kSsspCounterFields[i];
    total.*f.member = f.rule == RankReduce::kMean ? summed[i] / P : summed[i];
  }
  // Every engine that records the frontier histogram adds the global
  // frontier size of each round on every rank, so each rank already holds
  // the reduced histogram.
  total.frontier_hist = local.frontier_hist;
  for (const auto& f : kSsspDoubleFields) {
    total.*f.member = f.rule == RankReduce::kMin
                          ? comm.allreduce_min(local.*f.member)
                          : comm.allreduce_max(local.*f.member);
  }
  return total;
}

namespace {

/// Derive the headline numbers from report.runs (shared by both protocols).
void finalize_summary(BenchmarkReport& report) {
  if (report.runs.empty()) return;
  double inv_teps_sum = 0.0;
  double time_sum = 0.0;
  for (const RootRun& run : report.runs) {
    inv_teps_sum += run.teps > 0.0 ? 1.0 / run.teps : 0.0;
    time_sum += run.seconds;
  }
  report.harmonic_mean_teps =
      inv_teps_sum > 0.0
          ? static_cast<double>(report.runs.size()) / inv_teps_sum
          : 0.0;
  report.mean_seconds = time_sum / static_cast<double>(report.runs.size());
  auto [lo, hi] = std::minmax_element(
      report.runs.begin(), report.runs.end(),
      [](const RootRun& a, const RootRun& b) { return a.seconds < b.seconds; });
  report.min_seconds = lo->seconds;
  report.max_seconds = hi->seconds;
}

}  // namespace

BenchmarkReport run_benchmark(simmpi::Comm& comm, const graph::DistGraph& g,
                              const RunnerOptions& options) {
  BenchmarkReport report;
  report.num_vertices = g.num_vertices;
  report.num_input_edges = g.num_input_edges;
  report.num_directed_edges = g.num_directed_edges;
  report.num_ranks = comm.size();

  const std::vector<VertexId> roots =
      sample_roots(comm, g, options.num_roots, kRootSeed);

  for (const VertexId root : roots) {
    SsspStats local;
    util::Timer timer;
    SsspResult result;
    BfsResult bfs_result;
    switch (options.algorithm) {
      case Algorithm::kDeltaStepping:
        result = delta_stepping(comm, g, root, options.config, &local);
        break;
      case Algorithm::kAsyncDeltaStepping:
        result = async_delta_stepping(comm, g, root, options.config, &local);
        break;
      case Algorithm::kBellmanFord:
        result = bellman_ford(comm, g, root, options.config, &local);
        break;
      case Algorithm::kBfs:
        bfs_result = bfs(comm, g, root);
        break;
    }
    comm.barrier();
    const double local_seconds = timer.seconds();

    RootRun run;
    run.root = root;
    run.seconds = comm.allreduce_max(local_seconds);
    run.teps = run.seconds > 0.0
                   ? static_cast<double>(g.num_input_edges) / run.seconds
                   : 0.0;
    if (options.validate) {
      if (options.algorithm == Algorithm::kBfs) {
        const auto verdict = validate_bfs(comm, g, root, bfs_result);
        run.valid = verdict.ok;
        run.reachable = verdict.reachable;
        report.all_valid = report.all_valid && verdict.ok;
      } else {
        const auto verdict = validate_sssp(comm, g, root, result);
        run.valid = verdict.ok;
        run.reachable = verdict.reachable;
        report.all_valid = report.all_valid && verdict.ok;
      }
    }
    report.stats.merge(global_stats(comm, local));
    report.runs.push_back(run);
  }

  finalize_summary(report);
  return report;
}

BenchmarkReport run_benchmark_resilient(
    simmpi::World& world,
    const std::function<graph::DistGraph(simmpi::Comm&)>& build_graph,
    const RunnerOptions& options) {
  if (options.algorithm != Algorithm::kDeltaStepping) {
    throw std::invalid_argument(
        "run_benchmark_resilient: checkpointing is delta-stepping only");
  }
  const int P = world.size();
  const int max_attempts = std::max(1, options.max_attempts);

  // The driver's "stable storage": everything that survives a crashed
  // World::run.  Rank 0 is the only in-run writer of the shared report
  // state, and only between collectives, so harvested entries are never
  // torn (injected crashes fire at collective entry).
  std::vector<CheckpointState> snapshots(static_cast<std::size_t>(P));
  BenchmarkReport report;
  report.num_ranks = P;

  // Shared backoff schedule (jittered, deterministic in the seed): one
  // global retry counter drives the exponential ramp across both phases.
  std::uint64_t retries = 0;
  auto charge_backoff = [&]() {
    const double d = options.retry_backoff.delay(++retries);
    report.backoff_seconds += d;
    report.attempt_backoffs.push_back(d);
  };

  // ---- Phase A: build the graph and agree on the search keys. ---------
  std::vector<VertexId> roots;
  bool setup_done = false;
  for (int attempt = 1; !setup_done; ++attempt) {
    try {
      world.run([&](simmpi::Comm& comm) {
        const graph::DistGraph g = build_graph(comm);
        const std::vector<VertexId> sampled =
            sample_roots(comm, g, options.num_roots, kRootSeed);
        if (comm.rank() == 0) {
          roots = sampled;
          report.num_vertices = g.num_vertices;
          report.num_input_edges = g.num_input_edges;
          report.num_directed_edges = g.num_directed_edges;
        }
      });
      setup_done = true;
    } catch (const simmpi::InjectedCrashError&) {
      if (attempt >= max_attempts) throw;  // never even built the graph
      charge_backoff();
    } catch (const simmpi::CorruptionError&) {
      if (attempt >= max_attempts) throw;
      charge_backoff();
    }
  }

  const std::size_t n = roots.size();
  std::vector<RootRun> results(n);
  std::vector<std::uint8_t> done(n, 0);
  std::vector<std::uint8_t> exhausted(n, 0);
  std::vector<int> failures(n, 0);
  SsspStats stats_total;

  auto first_undone = [&]() -> std::size_t {
    std::size_t i = 0;
    while (i < n && done[i] != 0) ++i;
    return i;
  };

  // ---- Phase B: drain the roots, restarting the world after faults. ---
  while (first_undone() < n) {
    // Fixed work list for this attempt; rank 0 mutates done/results only
    // AFTER a root's closing collectives, which every rank has passed, so
    // intra-run readers of `todo` never race those writes.
    const std::vector<std::uint8_t> todo(done);
    bool run_failed = false;
    try {
      world.run([&](simmpi::Comm& comm) {
        const graph::DistGraph g = build_graph(comm);
        const std::vector<VertexId> sampled =
            sample_roots(comm, g, options.num_roots, kRootSeed);
        for (std::size_t i = 0; i < sampled.size(); ++i) {
          if (todo[i] != 0) continue;  // finished by an earlier attempt
          SsspStats local;
          util::Timer timer;
          RunControl control;
          control.checkpoint =
              &snapshots[static_cast<std::size_t>(comm.rank())];
          control.checkpoint_interval = options.checkpoint_interval;
          const SsspResult result = delta_stepping(
              comm, g, sampled[i], options.config, &local, control);
          comm.barrier();
          const double local_seconds = timer.seconds();

          RootRun run;
          run.root = sampled[i];
          run.seconds = comm.allreduce_max(local_seconds);
          run.teps = run.seconds > 0.0
                         ? static_cast<double>(g.num_input_edges) / run.seconds
                         : 0.0;
          if (options.validate) {
            const auto verdict = validate_sssp(comm, g, sampled[i], result);
            run.valid = verdict.ok;
            run.reachable = verdict.reachable;
          }
          const SsspStats gstats = global_stats(comm, local);
          run.recovered = gstats.restores > 0;
          if (comm.rank() == 0) {
            results[i] = run;
            stats_total.merge(gstats);
            done[i] = 1;
          }
        }
      });
    } catch (const CheckpointError&) {
      // Storage bit rot: the snapshots cannot be trusted; the interrupted
      // root restarts from scratch.
      for (auto& snapshot : snapshots) snapshot.clear();
      run_failed = true;
    } catch (const simmpi::InjectedCrashError&) {
      run_failed = true;
    } catch (const simmpi::CorruptionError&) {
      run_failed = true;
    }
    if (!run_failed) break;  // every root on the work list completed

    charge_backoff();
    const std::size_t victim = first_undone();
    if (victim >= n) break;  // died after the last root's bookkeeping
    if (++failures[victim] >= max_attempts) {
      // Out of budget: degrade to an invalid entry rather than sinking
      // the whole benchmark, and move on to the remaining roots.
      RootRun failed;
      failed.root = roots[victim];
      failed.valid = false;
      results[victim] = failed;
      done[victim] = 1;
      exhausted[victim] = 1;
      for (auto& snapshot : snapshots) snapshot.clear();
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    // A completed root consumed its failures plus the successful launch;
    // an abandoned one consumed only the failures.
    results[i].attempts = failures[i] + (exhausted[i] != 0 ? 0 : 1);
    report.all_valid = report.all_valid && results[i].valid;
    if (results[i].valid && results[i].attempts > 1) ++report.recovered_roots;
    if (!results[i].valid) ++report.failed_roots;
  }
  report.runs = std::move(results);
  report.stats = std::move(stats_total);
  finalize_summary(report);
  return report;
}

void BenchmarkReport::print(std::ostream& out) const {
  util::Table summary({"metric", "value"});
  summary.row().add("ranks").add(num_ranks);
  summary.row().add("vertices").add(static_cast<std::uint64_t>(num_vertices));
  summary.row().add("input edges (M)").add(num_input_edges);
  summary.row().add("directed edges").add(num_directed_edges);
  summary.row().add("roots").add(static_cast<std::uint64_t>(runs.size()));
  summary.row().add("all valid").add(all_valid ? "yes" : "NO");
  if (recovered_roots > 0 || failed_roots > 0) {
    summary.row().add("recovered roots").add(recovered_roots);
    summary.row().add("failed roots").add(failed_roots);
  }
  summary.row().add("harmonic mean TEPS").add_si(harmonic_mean_teps);
  summary.row().add("mean time (s)").add(mean_seconds, 4);
  summary.row().add("min time (s)").add(min_seconds, 4);
  summary.row().add("max time (s)").add(max_seconds, 4);
  summary.print(out, "Graph500 SSSP benchmark");
}

}  // namespace g500::core
