// serve_rw: reads and writes against one distance service.
//
// Why this workload: it is the only one that runs src/serve, src/dyn, the
// pruned-wave engine path and the analytics kernels.  Writes sit beside
// reads, so a write-path gain that costs reads shows, and so does the
// reverse.
//
// A scale-14 Kronecker graph on 2 ranks lives under dyn::MutableGraph; a
// serve::DistanceService runs over its view with the landmark oracle, a
// facility set and a root cache a quarter the size of the Zipf root
// universe.  Reads come from a serve::Workload trace (Poisson arrivals per
// simulated tick, Zipf roots, some nearest-facility and analytics
// queries).  Every kWriteEvery ticks a write batch of random inserts plus
// deletes of earlier inserts is committed and the service is told.
//
// Ticks run back to back: arrivals are open-loop in simulated ticks, but
// the loop is closed in wall time, so a slower service sees the same
// queries spread over more seconds.  A query's latency is the wall time
// from the start of its arrival tick to the end of its completion tick.
//
// At every version boundary the first answer of each answer class (query
// kind x where the answer came from) is checked against a fresh
// recompute on the view it was computed on; the clock is paused while
// checking.  The exact counters are a snapshot at the end of the first
// window_ticks ticks, which every run completes.
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>

#include "common.hpp"
#include "core/delta_stepping.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "dyn/mutable_graph.hpp"
#include "serve/service.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

// Two ranks on a 4-CPU host: every answer costs dozens of collectives, and
// with a rank on every CPU any preemption stalls all of them (see README).
constexpr int kRanks = 2;
constexpr int kUniverse = 64;
constexpr int kFacilities = 4;
constexpr std::size_t kLandmarks = 8;
constexpr std::uint64_t kWriteEvery = 8;
constexpr int kInserts = 16;
constexpr int kDeletes = 8;
constexpr std::uint64_t kHorizon = std::uint64_t{1} << 15;

struct Sizes {
  int scale;
  std::uint64_t window_ticks;  ///< fingerprint window, a multiple of 8
  std::uint64_t min_answers;   ///< fewest distance answers per run
  int setups;                  ///< timed set-ups after the untimed warm-up
};
constexpr Sizes kFull{14, 128, 1000, 7};
constexpr Sizes kSmall{10, 32, 60, 1};  ///< the self-test's
static_assert(kFull.window_ticks % kWriteEvery == 0 &&
              kSmall.window_ticks % kWriteEvery == 0);

bool is_distance(const serve::Answer& a) {
  return a.kind != serve::QueryKind::kAnalytics;
}

/// Correctness-sample class: the query kind, where its answer came from
/// and its outcome.
int answer_class(const serve::Answer& a) {
  const int source = !is_distance(a)     ? 8 + static_cast<int>(a.kernel)
                     : a.from_point_cache ? 1
                     : a.from_oracle      ? 2
                     : a.from_cache       ? 3
                     : a.pruned_wave      ? 4
                                          : 0;
  return ((static_cast<int>(a.outcome) * 3 + static_cast<int>(a.kind)) << 4) +
         source;
}

/// Whether a distance answer keeps its outcome's promise about the true
/// distance: a served answer is exact to the bit, a deadline-exceeded or
/// degraded one certifies an interval [lb, ub] holding it, a failed one
/// promises nothing.
bool agrees(const serve::Answer& a, graph::Weight truth) {
  switch (a.outcome) {
    case serve::Outcome::kServed:
      return std::memcmp(&a.distance, &truth, sizeof(truth)) == 0;
    case serve::Outcome::kDegraded:
    case serve::Outcome::kDeadlineExceeded:
      return a.lb <= truth && truth <= a.ub;
    case serve::Outcome::kFailed:
      return true;
  }
  return false;
}

// Rank-0 record of the run.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> service_setup_s;
  std::vector<double> latency_ms;  ///< distance answers; misses are +inf
  std::vector<double> update_ms;
  std::vector<double> commit_s, invalidate_s;
  std::vector<double> batch_tick_s, idle_tick_s;
  double loop_s = 0.0;
  double checks_s = 0.0;
  std::uint64_t answered = 0, served = 0, distance_answered = 0;
  std::uint64_t shed = 0, not_served = 0, checked = 0, check_failed = 0;
  std::array<std::uint64_t, 3> not_served_by_kind{};  ///< by QueryKind
  std::string first_error;
  serve::ServiceMetrics final;
  util::Json window = util::Json::object();
};

}  // namespace

Report run_serve_rw(const Options& opt) {
  const Sizes& size = opt.small ? kSmall : kFull;
  graph::KroneckerParams kp;
  kp.scale = size.scale;
  kp.edgefactor = 16;
  kp.seed1 = opt.seed_for("kron-seed1");
  kp.seed2 = opt.seed_for("kron-seed2");
  const std::uint64_t root_seed = opt.seed_for("root-seed");
  const std::uint64_t query_seed = opt.seed_for("query-seed");
  const std::uint64_t write_seed = opt.seed_for("write-seed");
  const int ranks = fit_ranks(kRanks, 1);
  const std::uint64_t window = size.window_ticks;

  Report rep;
  rep.config["scale"] = kp.scale;
  rep.config["edgefactor"] = kp.edgefactor;
  rep.config["ranks"] = ranks;
  rep.config["window_ticks"] = window;
  rep.config["kron_seed1"] = kp.seed1;
  rep.config["kron_seed2"] = kp.seed2;
  rep.config["root_seed"] = root_seed;
  rep.config["query_seed"] = query_seed;
  rep.config["write_seed"] = write_seed;

  std::vector<Tracer> tracers(static_cast<std::size_t>(ranks),
                              Tracer(opt.trace));
  BuildLog build;
  Measured m;

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const bool lead = comm.rank() == 0;
    Tracer& tr = tracers[static_cast<std::size_t>(comm.rank())];
    Span top(tr, "serve_rw");

    // ---- set-up: untimed warm-up, then timed rebuilds -------------------
    std::optional<serve::DistanceService> svc;
    std::optional<dyn::MutableGraph> mg;
    serve::ServeConfig sc;
    std::vector<graph::VertexId> universe;
    for (int i = 0; i <= size.setups; ++i) {
      svc.reset();
      mg.reset();
      comm.barrier();
      util::Timer timer;
      {
        Span span(tr, i == 0 ? "warmup" : "setup", i);
        mg.emplace(comm, build_kronecker_timed(comm, tr, kp, build));
        const graph::DistGraph& view = mg->view();
        universe = core::sample_roots(comm, view, kUniverse + kFacilities,
                                      root_seed);
        if (universe.size() != kUniverse + kFacilities) {
          throw std::runtime_error("serve_rw: too few eligible roots");
        }
        sc = serve::ServeConfig{};
        sc.facilities.assign(universe.end() - kFacilities, universe.end());
        universe.resize(kUniverse);
        sc.oracle.num_landmarks = kLandmarks;
        // Room for a quarter of the root universe per rank.
        sc.cache_budget_bytes = static_cast<std::size_t>(kUniverse / 4) *
                                view.part.count(0) * sizeof(graph::Weight);
        sc.graph_version = mg->version();
        Span service_span(tr, "serve.setup");
        util::Timer service_timer;
        svc.emplace(comm, view, sc);
        if (lead && i > 0) m.service_setup_s.push_back(service_timer.seconds());
      }
      comm.barrier();
      const double seconds = timer.seconds();
      if (lead && i > 0) m.setup_s.push_back(seconds);
    }
    const graph::DistGraph& view = mg->view();

    serve::WorkloadConfig wc;
    wc.seed = query_seed;
    wc.ticks = kHorizon;
    wc.arrivals_per_tick = 4.0;
    wc.zipf_s = 1.1;
    wc.nearest_fraction = 0.125;
    wc.analytics_fraction = 0.02;
    wc.roots = universe;
    wc.num_vertices = view.num_vertices;
    const serve::Workload workload(wc);
    const serve::KernelRegistry fresh_kernels(sc.analytics);

    // ---- correctness sample: first answer per class per version ---------
    std::map<int, serve::Answer> sample;
    auto check_sample = [&] {
      Span span(tr, "check.answers");
      std::map<graph::VertexId, std::pair<bool, std::vector<graph::Weight>>>
          reference;
      std::optional<std::vector<graph::Weight>> nearest;
      for (const auto& [cls, a] : sample) {
        bool ok = a.graph_version == mg->version();
        if (a.kind == serve::QueryKind::kPointToPoint) {
          auto it = reference.find(a.root);
          if (it == reference.end()) {
            const core::SsspResult r = core::delta_stepping(comm, view, a.root);
            const bool valid = core::validate_sssp(comm, view, a.root, r).ok;
            it = reference
                     .emplace(a.root,
                              std::make_pair(
                                  valid,
                                  core::gather_result(comm, view, r).dist))
                     .first;
          }
          ok = ok && it->second.first &&
               agrees(a, it->second.second[a.target]);
        } else if (a.kind == serve::QueryKind::kNearestFacility) {
          if (!nearest) {
            nearest = core::gather_result(
                          comm, view,
                          core::delta_stepping_multi(comm, view, sc.facilities))
                          .dist;
          }
          ok = ok && agrees(a, (*nearest)[a.target]);
        } else {
          const serve::AnalyticsOutcome fresh = fresh_kernels.run(
              comm, view, a.kernel, a.root, a.target, nullptr, 0);
          ok = ok && (a.outcome != serve::Outcome::kServed ||
                      (fresh.digest == a.digest && fresh.value == a.value));
        }
        if (lead) {
          ++m.checked;
          if (!ok) {
            ++m.check_failed;
            if (m.first_error.empty()) {
              m.first_error = "query " + std::to_string(a.id) + " (class " +
                              std::to_string(cls) + ", version " +
                              std::to_string(a.graph_version) +
                              ") disagrees with a fresh recompute";
            }
          }
        }
      }
      sample.clear();
    };

    // ---- the read/write loop ------------------------------------------
    // Wall clock with the correctness checks cut out.
    std::int64_t excluded_ns = 0;
    auto clock = [&] { return now_ns() - excluded_ns; };
    auto untimed = [&](const auto& fn) {
      comm.barrier();
      const std::int64_t t0 = now_ns();
      fn();
      comm.barrier();
      excluded_ns += now_ns() - t0;
    };

    util::SplitMix64 write_rng(write_seed);
    std::vector<std::pair<graph::VertexId, graph::VertexId>> live_inserts;
    std::vector<std::int64_t> tick_start;
    std::uint64_t window_bytes = 0, window_msgs = 0, window_rounds = 0;
    std::uint64_t window_distance = 0;
    std::uint64_t window_digest = 0;  ///< over every window answer
    std::vector<double> window_ticks_latency;

    auto run_tick = [&](std::uint64_t t, bool flush, bool admit) {
      tick_start.push_back(clock());
      if (admit) {
        for (const auto& q : workload.arrivals(t)) {
          if (!svc->submit(q) && lead) ++m.shed;
        }
      }
      const simmpi::CommStats before = comm.stats();
      std::vector<serve::Answer> answers;
      {
        Span span(tr, "serve.tick", static_cast<std::int64_t>(t));
        answers = svc->tick(t, flush);
        span.rename(answers.empty() ? "serve.idle_tick" : "serve.batch_tick");
      }
      const std::int64_t end = clock();
      if (t < window) {
        const simmpi::CommStats& after = comm.stats();
        window_bytes += after.total_bytes() - before.total_bytes();
        window_msgs += after.total_messages() - before.total_messages();
        window_rounds += after.rounds() - before.rounds();
      }
      if (!lead) {
        for (const auto& a : answers) sample.try_emplace(answer_class(a), a);
        return;
      }
      const double tick_s =
          static_cast<double>(end - tick_start.back()) * 1e-9;
      (answers.empty() ? m.idle_tick_s : m.batch_tick_s).push_back(tick_s);
      for (const auto& a : answers) {
        sample.try_emplace(answer_class(a), a);
        if (t < window) {
          const double fields[] = {static_cast<double>(a.id), a.distance,
                                   a.value,
                                   static_cast<double>(a.graph_version)};
          window_digest =
              util::hash_bytes(fields, sizeof(fields), window_digest);
        }
        ++m.answered;
        if (a.outcome == serve::Outcome::kServed) {
          ++m.served;
        } else {
          ++m.not_served;
          ++m.not_served_by_kind[static_cast<std::size_t>(a.kind)];
        }
        if (!is_distance(a)) continue;
        ++m.distance_answered;
        const std::int64_t start = tick_start.at(a.arrival_tick);
        m.latency_ms.push_back(a.outcome == serve::Outcome::kServed
                                   ? static_cast<double>(end - start) * 1e-6
                                   : std::numeric_limits<double>::infinity());
        tr.lifetime("query", start, end, static_cast<std::int64_t>(a.id));
        if (t < window) {
          ++window_distance;
          window_ticks_latency.push_back(
              static_cast<double>(a.latency_ticks()));
        }
      }
    };

    auto snapshot_window = [&] {
      Span span(tr, "snapshot");
      const serve::ServiceMetrics& sm = svc->metrics();
      const std::uint64_t bytes = comm.allreduce_sum(window_bytes);
      const std::uint64_t msgs = comm.allreduce_sum(window_msgs);
      const std::uint64_t pruned_expand =
          comm.allreduce_sum(sm.wave_pruned_expand);
      const std::uint64_t pruned_apply =
          comm.allreduce_sum(sm.wave_pruned_apply);
      if (!lead) return;
      const double answers =
          static_cast<double>(std::max<std::uint64_t>(window_distance, 1));
      const std::uint64_t lookups = sm.cache.hits + sm.cache.misses;
      const std::uint64_t point_lookups =
          sm.point_cache_hits + sm.point_cache_misses;
      auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
      };
      util::Json& w = m.window;
      w["simmpi.wire_bytes"] = static_cast<double>(bytes) / answers;
      w["simmpi.messages"] = static_cast<double>(msgs) / answers;
      w["simmpi.collectives"] = static_cast<double>(window_rounds) / answers;
      w["core.pruned_expand"] = pruned_expand;
      w["core.pruned_apply"] = pruned_apply;
      w["serve.analytics_jobs"] = sm.analytics_jobs;
      w["serve.analytics_memo_hits"] = sm.analytics_memo_hits;
      w["serve.waves"] = sm.waves;
      w["serve.pruned_waves"] = sm.pruned_waves;
      w["serve.waves_per_answer"] = static_cast<double>(sm.waves) / answers;
      w["serve.cache_hit_ratio"] = ratio(sm.cache.hits, lookups);
      w["serve.point_cache_hit_ratio"] =
          ratio(sm.point_cache_hits, point_lookups);
      w["serve.oracle_exact_ratio"] =
          static_cast<double>(sm.oracle_exact) / answers;
      w["serve.batch_occupancy_mean"] = sm.batch_occupancy.mean();
      w["serve.query_ticks_p50"] = quantile(window_ticks_latency, 0.5);
      w["serve.query_ticks_p99"] = quantile(window_ticks_latency, 0.99);
      w["serve.queue_depth_p99"] = sm.queue_depth.quantile(0.99);
      w["serve.roots_retained"] = sm.roots_retained;
      w["serve.roots_invalidated"] = sm.roots_invalidated;
      w["serve.points_retained"] = sm.points_retained;
      w["serve.points_invalidated"] = sm.points_invalidated;
      w["serve.slices_refreshed"] = sm.slices_refreshed;
      w["serve.memo_invalidated"] = sm.memo_invalidated;
      w["dyn.edges_applied"] = mg->stats().edges_applied;
      w["dyn.compactions"] = mg->stats().compactions;
      w["distance_answers"] = window_distance;
      w["answered"] = sm.answered;
      w["arrived"] = sm.arrived;
      w["answer_digest"] = std::to_string(window_digest);
    };

    auto write_batch = [&] {
      comm.barrier();
      util::Timer timer;
      if (lead) {
        // Deletes pick among earlier inserts; then fresh random inserts.
        for (int d = 0; d < kDeletes && !live_inserts.empty(); ++d) {
          const std::size_t j = write_rng.next_below(live_inserts.size());
          mg->stage_delete(live_inserts[j].first, live_inserts[j].second);
          live_inserts[j] = live_inserts.back();
          live_inserts.pop_back();
        }
        for (int k = 0; k < kInserts; ++k) {
          const graph::VertexId u = write_rng.next_below(view.num_vertices);
          const graph::VertexId v = write_rng.next_below(view.num_vertices);
          const auto w = static_cast<graph::Weight>(write_rng.next_double());
          mg->stage_insert(u, v, w);
          live_inserts.emplace_back(u, v);
        }
      }
      dyn::CommitSummary summary;
      {
        Span span(tr, "dyn.commit");
        util::Timer commit_timer;
        summary = mg->commit_batch();
        if (lead) m.commit_s.push_back(commit_timer.seconds());
      }
      {
        Span span(tr, "serve.invalidate");
        util::Timer invalidate_timer;
        svc->note_graph_update(summary);
        if (lead) m.invalidate_s.push_back(invalidate_timer.seconds());
      }
      comm.barrier();
      if (lead) m.update_ms.push_back(timer.seconds() * 1e3);
    };

    comm.barrier();
    const std::int64_t loop_start = clock();
    std::uint64_t t = 0;
    for (;; ++t) {
      if (t > 0 && t % kWriteEvery == 0) {
        untimed(check_sample);
        if (t == window) untimed(snapshot_window);
        const bool done =
            lead && t >= window && t + kWriteEvery <= kHorizon &&
            m.distance_answered >= size.min_answers &&
            static_cast<double>(clock() - loop_start) * 1e-9 >= opt.seconds;
        if (comm.allreduce_or(done || t + kWriteEvery > kHorizon)) break;
        write_batch();
      }
      run_tick(t, false, true);
    }
    // Drain what is still queued; no new arrivals.
    while (svc->pending() > 0) run_tick(t++, true, false);
    const std::int64_t loop_end = clock();
    untimed(check_sample);
    if (lead) {
      m.loop_s = static_cast<double>(loop_end - loop_start) * 1e-9;
      m.checks_s = static_cast<double>(excluded_ns) * 1e-9;
      m.final = svc->metrics();
    }
  });

  const serve::ServiceMetrics& sm = m.final;
  const std::uint64_t unanswered = sm.arrived - sm.shed - m.answered;
  rep.attempted = sm.arrived;
  rep.failed = m.shed + m.not_served + unanswered;
  if (m.check_failed > 0) rep.fail(m.first_error);
  if (unanswered > 0) rep.fail(std::to_string(unanswered) + " queries unanswered");
  if (m.checked == 0) rep.fail("no answers were checked");

  rep.metrics["setup_s"] = quantile(m.setup_s, 0.5);
  rep.metrics["peak_rss_mb"] = peak_rss_mib();
  rep.metrics["serve_qps"] = static_cast<double>(m.served) / m.loop_s;
  rep.metrics["query_ms_p50"] = quantile(m.latency_ms, 0.5);
  rep.metrics["query_ms_p99"] = quantile(m.latency_ms, 0.99);
  rep.metrics["update_ms_p50"] = quantile(m.update_ms, 0.5);
  // Diagnostic only: the tail of the served answers, failures left out.
  std::vector<double> served_ms;
  for (const double v : m.latency_ms) {
    if (std::isfinite(v)) served_ms.push_back(v);
  }
  rep.metrics["query_ms_p99_served"] = quantile(served_ms, 0.99);
  rep.samples["setup_s"] = m.setup_s.size();
  rep.samples["query_ms"] = m.latency_ms.size();
  rep.samples["query_ms_p99_beyond"] =
      samples_beyond(m.latency_ms.size(), 0.99);
  rep.samples["update_ms"] = m.update_ms.size();
  rep.samples["loop_seconds"] = m.loop_s;
  rep.samples["answers_checked"] = m.checked;
  rep.samples["shed"] = m.shed;
  rep.samples["not_served_point_to_point"] = m.not_served_by_kind[0];
  rep.samples["not_served_nearest_facility"] = m.not_served_by_kind[1];
  rep.samples["not_served_analytics"] = m.not_served_by_kind[2];
  rep.samples["check_seconds_excluded"] = m.checks_s;

  auto per_call = [](double total, std::uint64_t calls) {
    return calls > 0 ? total / static_cast<double>(calls) : 0.0;
  };
  util::Json& L = rep.layers;
  L["graph.generate_s"] = quantile(build.generate_s, 0.5);
  L["graph.build_s"] = quantile(build.build_s, 0.5);
  L["graph.build_wire_bytes"] = build.build_wire_bytes;
  L["serve.setup_s"] = quantile(m.service_setup_s, 0.5);
  L["serve.batch_tick_s"] = mean(m.batch_tick_s);
  L["serve.idle_tick_s"] = mean(m.idle_tick_s);
  L["serve.wave_s"] = per_call(sm.wave_seconds, sm.waves);
  L["serve.fetch_s"] = per_call(sm.fetch_seconds, sm.fetch_rounds);
  L["serve.oracle_s"] = per_call(sm.oracle_seconds, sm.batches);
  L["serve.analytics_s"] = per_call(sm.analytics_seconds, sm.analytics_jobs);
  L["serve.invalidate_s"] = mean(m.invalidate_s);
  L["dyn.commit_s"] = mean(m.commit_s);
  for (const auto& [key, value] : m.window.members()) {
    if (key.find('.') != std::string::npos) L[key] = value;
  }

  rep.exact = m.window;
  rep.exact["graph.build_wire_bytes"] = build.build_wire_bytes;

  rep.attach_trace(opt, tracers);
  return rep;
}

}  // namespace perfbench
