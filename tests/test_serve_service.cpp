// End-to-end tests for the online distance-query service: answers must be
// bit-identical to a fresh offline delta-stepping run, the micro-batcher
// must honor its size/deadline triggers, a full queue must shed the
// arriving query, and the counters must agree across ranks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/delta_stepping.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/driver.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using serve::Answer;
using serve::DistanceService;
using serve::Query;
using serve::QueryKind;
using serve::ServeConfig;
using serve::Workload;
using serve::WorkloadConfig;

graph::DistGraph build_test_graph(simmpi::Comm& comm,
                                  const graph::EdgeList& list) {
  return graph::build_distributed(
      comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
      list.num_vertices);
}

/// Every answer of a seeded workload replayed through the service equals
/// the fresh offline computation for its root, bit for bit — cache hits,
/// batching and dedup must not perturb a single value.
TEST(ServeService, AnswersBitIdenticalToFreshDeltaStepping) {
  const auto list = graph::random_graph(128, 512, 24);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);

    WorkloadConfig wl;
    wl.seed = 7;
    wl.ticks = 24;
    wl.arrivals_per_tick = 3.0;
    wl.zipf_s = 1.1;
    wl.roots = {3, 11, 42, 64, 100};
    wl.num_vertices = g.num_vertices;

    ServeConfig config;
    config.batch_size = 4;
    config.queue_depth = 256;  // no shedding: every query must be answered

    const auto run = serve::run_workload(comm, g, config, Workload(wl),
                                         /*keep_answers=*/true);
    ASSERT_GT(run.answers.size(), 0u);
    EXPECT_EQ(run.metrics.answered, run.answers.size());
    EXPECT_EQ(run.metrics.shed, 0u);

    // Fresh single-source runs, one per distinct root in the answer set.
    std::map<graph::VertexId, core::SequentialResult> oracle;
    for (const auto& a : run.answers) {
      if (!oracle.count(a.root)) {
        const auto mine = core::delta_stepping(comm, g, a.root);
        oracle.emplace(a.root, core::gather_result(comm, g, mine));
      }
    }
    std::uint64_t from_cache = 0;
    for (const auto& a : run.answers) {
      ASSERT_EQ(a.kind, QueryKind::kPointToPoint);
      const auto& want = oracle.at(a.root).dist;
      ASSERT_LT(a.target, want.size());
      EXPECT_EQ(a.distance, want[a.target])
          << "query " << a.id << " root " << a.root << " target " << a.target
          << " from_cache " << a.from_cache;
      if (a.from_cache) ++from_cache;
    }
    // A Zipf workload over 5 roots must produce warm answers.
    EXPECT_GT(from_cache, 0u);
    EXPECT_GT(run.metrics.cache.hit_rate(), 0.0);
    // Dedup + cache: far fewer waves than answers.
    EXPECT_LT(run.metrics.waves, run.metrics.answered);
  });
}

TEST(ServeService, NearestFacilityMatchesMultiSourceOracle) {
  const auto list = graph::random_graph(96, 384, 31);
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);

    ServeConfig config;
    config.facilities = {2, 47, 90};
    config.batch_size = 4;

    WorkloadConfig wl;
    wl.seed = 9;
    wl.ticks = 12;
    wl.arrivals_per_tick = 2.0;
    wl.nearest_fraction = 1.0;
    wl.num_vertices = g.num_vertices;

    const auto run = serve::run_workload(comm, g, config, Workload(wl),
                                         /*keep_answers=*/true);
    ASSERT_GT(run.answers.size(), 0u);

    const auto mine =
        core::delta_stepping_multi(comm, g, config.facilities);
    const auto want = core::gather_result(comm, g, mine);
    for (const auto& a : run.answers) {
      ASSERT_EQ(a.kind, QueryKind::kNearestFacility);
      EXPECT_EQ(a.distance, want.dist[a.target]) << "query " << a.id;
    }
    // One facility wave serves the whole run (single reserved cache key).
    EXPECT_EQ(run.metrics.waves, 1u);
  });
}

TEST(ServeService, BatchDispatchTriggers) {
  const auto list = graph::path_graph(32, 5);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 3;
    DistanceService service(comm, g, config);
    constexpr std::uint64_t kWait = DistanceService::kMaxWaitTicks;
    ASSERT_EQ(service.current_max_wait_ticks(), kWait);

    Query q;
    q.root = 0;
    q.target = 5;
    q.arrival_tick = 0;

    // Deadline trigger: one waiter, batch far from full.
    ASSERT_TRUE(service.submit(q));
    for (std::uint64_t t = 0; t < kWait; ++t) {
      EXPECT_TRUE(service.tick(t).empty()) << "tick " << t;
    }
    const auto by_deadline = service.tick(kWait);  // age == kMaxWaitTicks
    ASSERT_EQ(by_deadline.size(), 1u);
    EXPECT_EQ(by_deadline[0].completion_tick, kWait);
    EXPECT_EQ(by_deadline[0].latency_ticks(), kWait);

    // Size trigger: the third submission fills the batch; it dispatches
    // on the next tick even though no one hit the deadline.
    for (std::uint64_t i = 0; i < 3; ++i) {
      q.id = 10 + i;
      q.arrival_tick = kWait + 1;
      ASSERT_TRUE(service.submit(q));
    }
    const auto by_size = service.tick(kWait + 1);
    ASSERT_EQ(by_size.size(), 3u);
    for (const auto& a : by_size) EXPECT_EQ(a.latency_ticks(), 0u);
  });
}

TEST(ServeService, RejectNewShedsArrivalsAndAllowsResubmit) {
  const auto list = graph::path_graph(16, 6);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.queue_depth = 2;
    config.batch_size = 8;
    DistanceService service(comm, g, config);

    Query q;
    q.root = 0;
    for (std::uint64_t i = 0; i < 3; ++i) {
      q.id = i;
      q.target = i;
      const bool admitted = service.submit(q);
      EXPECT_EQ(admitted, i < 2) << "query " << i;
    }
    ASSERT_EQ(service.shed_log().size(), 1u);
    EXPECT_EQ(service.shed_log()[0].id, 2u);  // the arrival bounced
    EXPECT_EQ(service.pending(), 2u);

    auto answers = service.drain(1);
    EXPECT_EQ(answers.size(), 2u);

    // The shed query can be resubmitted once the queue has room.
    Query retry = service.shed_log()[0];
    retry.arrival_tick = 5;
    ASSERT_TRUE(service.submit(retry));
    answers = service.drain(5);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0].id, 2u);

    const auto& m = service.metrics();
    EXPECT_EQ(m.arrived, 4u);
    EXPECT_EQ(m.admitted, 3u);
    EXPECT_EQ(m.shed, 1u);
    EXPECT_EQ(m.answered, 3u);
  });
}

// A query still queued at its deadline tick completes immediately with
// Outcome::kDeadlineExceeded and the vacuous [0, inf) interval — it must
// not age silently or count as answered.
TEST(ServeService, QueueExpiredDeadlineCompletesUnanswered) {
  const auto list = graph::path_graph(16, 6);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 8;  // size trigger never fires
    DistanceService service(comm, g, config);

    Query q;
    q.id = 9;
    q.root = 0;
    q.target = 12;
    q.arrival_tick = 0;
    q.deadline_tick = 3;  // before the age trigger (kMaxWaitTicks) fires
    static_assert(DistanceService::kMaxWaitTicks > 3);
    ASSERT_TRUE(service.submit(q));
    EXPECT_TRUE(service.tick(0).empty());
    EXPECT_TRUE(service.tick(2).empty());
    const auto answers = service.tick(3);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0].id, 9u);
    EXPECT_EQ(answers[0].outcome, serve::Outcome::kDeadlineExceeded);
    EXPECT_TRUE(std::isinf(answers[0].distance));
    EXPECT_EQ(answers[0].lb, 0.0f);
    EXPECT_EQ(service.pending(), 0u);
    EXPECT_EQ(service.metrics().deadline_exceeded, 1u);
    EXPECT_EQ(service.metrics().answered, 0u);
    EXPECT_EQ(service.metrics().waves, 0u);
  });
}

// A batch deadline budget truncates the wave at the engine level: targets
// beyond the settled bound come back kDeadlineExceeded with a certified
// [settled_bound, ub) interval, while targets inside it stay exact — and
// the truncated slice must never enter the cache.
TEST(ServeService, DeadlineBudgetTruncatesWaveKeepsSettledPrefixExact) {
  // A long path: at the automatic delta (1/2 here) a sweep from one end
  // spans hundreds of bucket epochs.
  const auto list = graph::path_graph(1024, 5);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 2;
    DistanceService service(comm, g, config);

    Query far;
    far.id = 0;
    far.root = 0;
    far.target = 1023;  // the other end of the path: way past the budget
    far.arrival_tick = 0;
    far.deadline_tick = 2;
    Query near = far;
    near.id = 1;
    near.target = 0;  // distance 0 settles inside any budget
    ASSERT_TRUE(service.submit(far));
    ASSERT_TRUE(service.submit(near));

    // Size trigger; the budget is 2 ticks of bucket epochs.
    const auto answers = service.tick(0);
    ASSERT_EQ(answers.size(), 2u);
    const auto& a_far = answers[0].id == 0 ? answers[0] : answers[1];
    const auto& a_near = answers[0].id == 1 ? answers[0] : answers[1];
    EXPECT_EQ(a_far.outcome, serve::Outcome::kDeadlineExceeded);
    EXPECT_TRUE(std::isinf(a_far.distance));
    EXPECT_GT(a_far.lb, 0.0f);  // the settled bound certifies the prefix
    EXPECT_EQ(a_near.outcome, serve::Outcome::kServed);
    EXPECT_EQ(a_near.distance, 0.0f);
    EXPECT_EQ(service.metrics().deadline_truncated_waves, 1u);
    EXPECT_EQ(service.metrics().deadline_exceeded, 1u);
    EXPECT_EQ(service.metrics().answered, 1u);
    // Truncated slices are upper bounds beyond the settled boundary and
    // must never be cached.
    EXPECT_EQ(service.metrics().cache.inserts, 0u);
  });
}

// Regression: a complete wave's settled bound is +infinity, so a target
// no source reaches is answered exactly (+infinity), not reported as past
// the deadline.
TEST(ServeService, UnreachableTargetIsServedAsInfinity) {
  auto list = graph::path_graph(16, 6);
  list.num_vertices = 20;  // vertices 16..19 are isolated
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 2;
    config.facilities = {3};
    DistanceService service(comm, g, config);

    Query point;
    point.id = 0;
    point.root = 0;
    point.target = 18;
    Query nearest;
    nearest.id = 1;
    nearest.kind = QueryKind::kNearestFacility;
    nearest.target = 17;
    ASSERT_TRUE(service.submit(point));
    ASSERT_TRUE(service.submit(nearest));

    const auto answers = service.tick(0);
    ASSERT_EQ(answers.size(), 2u);
    for (const auto& a : answers) {
      EXPECT_EQ(a.outcome, serve::Outcome::kServed) << "query " << a.id;
      EXPECT_TRUE(std::isinf(a.distance)) << "query " << a.id;
    }
    EXPECT_EQ(service.metrics().answered, 2u);
    EXPECT_EQ(service.metrics().deadline_exceeded, 0u);
  });
}

// Regression: the shed log is bounded by DistanceService::kShedLogCap —
// overflowing shed queries are still counted and rejected, but their
// records are dropped (an adversarial burst must not grow memory without
// bound).  Submission is local bookkeeping, so the burst is cheap.
TEST(ServeService, ShedLogHonorsItsCap) {
  const auto list = graph::path_graph(16, 6);
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.queue_depth = 1;
    config.batch_size = 8;
    DistanceService service(comm, g, config);

    constexpr std::uint64_t kCap = DistanceService::kShedLogCap;
    Query q;
    q.root = 0;
    for (std::uint64_t i = 0; i < kCap + 3; ++i) {
      q.id = i;
      q.target = i % g.num_vertices;
      const bool admitted = service.submit(q);
      ASSERT_EQ(admitted, i == 0) << "query " << i;
    }
    ASSERT_EQ(service.shed_log().size(), kCap);
    EXPECT_EQ(service.shed_log().front().id, 1u);
    EXPECT_EQ(service.shed_log().back().id, kCap);
    EXPECT_EQ(service.metrics().shed, kCap + 2);
    EXPECT_EQ(service.metrics().shed_log_overflow, 2u);
  });
}

TEST(ServeService, WarmCacheSkipsWaves) {
  const auto list = graph::random_graph(64, 256, 12);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);

    WorkloadConfig wl;
    wl.seed = 5;
    wl.ticks = 8;
    wl.arrivals_per_tick = 2.0;
    wl.roots = {1, 2, 3};
    wl.num_vertices = g.num_vertices;
    const Workload workload(wl);

    ServeConfig config;
    DistanceService service(comm, g, config);
    const auto cold =
        serve::run_workload(comm, g, config, workload, false, &service);
    ASSERT_GT(cold.metrics.answered, 0u);
    EXPECT_GT(cold.metrics.waves, 0u);

    // Same trace again on the warm service: every root is resident, so
    // no wave dispatches at all and every lookup hits.
    const auto warm =
        serve::run_workload(comm, g, config, workload, false, &service);
    EXPECT_EQ(warm.metrics.answered, cold.metrics.answered);
    EXPECT_EQ(warm.metrics.waves, 0u);
    EXPECT_DOUBLE_EQ(warm.metrics.cache.hit_rate(), 1.0);
  });
}

TEST(ServeService, MetricsAgreeAcrossRanks) {
  const auto list = graph::random_graph(80, 320, 17);
  const int ranks = 4;
  std::vector<std::vector<std::uint64_t>> per_rank(ranks);
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    WorkloadConfig wl;
    wl.seed = 3;
    wl.ticks = 16;
    wl.arrivals_per_tick = 3.0;
    wl.roots = {0, 10, 20, 30};
    wl.num_vertices = g.num_vertices;
    ServeConfig config;
    config.queue_depth = 8;  // tight: force some shedding too
    const auto run = serve::run_workload(comm, g, config, Workload(wl));
    const auto& m = run.metrics;
    per_rank[static_cast<std::size_t>(comm.rank())] = {
        m.arrived,      m.admitted, m.shed,
        m.answered,     m.batches,  m.waves,
        m.fetch_rounds, m.cache.hits, m.cache.misses,
        m.cache.evictions};
  });
  for (int r = 1; r < ranks; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], per_rank[0])
        << "rank " << r;
  }
}

TEST(ServeService, ValidatesQueriesAndConfig) {
  const auto list = graph::path_graph(8, 2);
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);

    ServeConfig bad = {};
    bad.queue_depth = 0;
    EXPECT_THROW(DistanceService(comm, g, bad), std::invalid_argument);
    bad = {};
    bad.batch_size = 0;
    EXPECT_THROW(DistanceService(comm, g, bad), std::invalid_argument);
    bad = {};
    bad.facilities = {g.num_vertices};
    EXPECT_THROW(DistanceService(comm, g, bad), std::out_of_range);

    DistanceService service(comm, g, ServeConfig{});
    Query q;
    q.root = g.num_vertices;  // out of range
    q.target = 0;
    EXPECT_THROW(service.submit(q), std::out_of_range);
    q.root = 0;
    q.kind = QueryKind::kNearestFacility;  // no facility set configured
    EXPECT_THROW(service.submit(q), std::invalid_argument);
  });
}

// Regression: submit() bumped `arrived` before validating, so a rejected
// query still counted — and on an SPMD run only the ranks that caught the
// throw kept going, with metrics permanently skewed from the rest.
TEST(ServeService, RejectedSubmissionLeavesMetricsUntouched) {
  const auto list = graph::path_graph(8, 2);
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    DistanceService service(comm, g, ServeConfig{});
    Query bad;
    bad.root = g.num_vertices;  // out of range
    EXPECT_THROW(service.submit(bad), std::out_of_range);
    EXPECT_EQ(service.metrics().arrived, 0u);

    Query good;
    good.root = 0;
    good.target = 3;
    ASSERT_TRUE(service.submit(good));
    EXPECT_EQ(service.metrics().arrived, 1u);
    EXPECT_EQ(service.metrics().admitted, 1u);
  });
}

// The simulated clock must never move backwards: a stale `now` would make
// latency_ticks underflow to ~2^64 and poison the histograms.
TEST(ServeService, BackwardsClockIsRejected) {
  const auto list = graph::path_graph(8, 2);
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    DistanceService service(comm, g, ServeConfig{});
    (void)service.tick(5);
    (void)service.tick(5);  // equal is fine
    EXPECT_THROW(service.tick(4), std::invalid_argument);
    // reset_metrics restarts the watermark for a new measured phase.
    service.reset_metrics();
    (void)service.tick(0);
  });
}

// A flush can complete a query whose recorded arrival tick lies beyond
// the drain clock; latency saturates at 0 instead of wrapping.
TEST(ServeService, LatencySaturatesWhenCompletionPrecedesArrival) {
  const auto list = graph::path_graph(8, 2);
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    DistanceService service(comm, g, ServeConfig{});
    Query q;
    q.root = 0;
    q.target = 4;
    q.arrival_tick = 100;  // claims to arrive in the future
    ASSERT_TRUE(service.submit(q));
    const auto answers = service.drain(0);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0].latency_ticks(), 0u);
    EXPECT_EQ(service.metrics().slo_violations, 0u);
    EXPECT_LE(service.metrics().latency_ticks.max_value(), 0u);
  });
}

TEST(ServeService, RunReportJsonCarriesTheSchema) {
  const auto list = graph::random_graph(48, 192, 8);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    WorkloadConfig wl;
    wl.seed = 2;
    wl.ticks = 8;
    wl.arrivals_per_tick = 2.0;
    wl.roots = {1, 5};
    wl.num_vertices = g.num_vertices;
    ServeConfig config;
    config.facilities = {1};
    const auto run = serve::run_workload(comm, g, config, Workload(wl));
    if (comm.rank() != 0) return;

    const auto j = serve::to_json(run);
    ASSERT_TRUE(j.is_object());
    EXPECT_TRUE(j.contains("ticks_run"));
    EXPECT_TRUE(j.contains("wall_seconds"));
    EXPECT_TRUE(j.contains("throughput_qps"));
    for (const auto* key : {"wire_bytes", "relax_generated", "relax_sent",
                            "pruned_expand", "pruned_apply"}) {
      EXPECT_TRUE(j.contains(key)) << key;
    }
    ASSERT_TRUE(j.contains("metrics"));
    const auto& m = j.at("metrics");
    for (const auto* key :
         {"arrived", "admitted", "shed", "shed_rate", "answered",
          "slo_violations", "batches", "waves", "pruned_waves",
          "fetch_rounds", "oracle_exact", "oracle_unreachable",
          "adaptive_adjustments", "wave_relax_generated", "oracle_seconds",
          "latency_ticks", "queue_depth", "cache"}) {
      EXPECT_TRUE(m.contains(key)) << key;
    }
    const auto& lat = m.at("latency_ticks");
    for (const auto* key : {"p50", "p90", "p99"}) {
      EXPECT_TRUE(lat.contains(key)) << key;
    }
    const auto& cache = m.at("cache");
    for (const auto* key : {"hits", "misses", "evictions", "hit_rate"}) {
      EXPECT_TRUE(cache.contains(key)) << key;
    }

    const auto cfg = serve::to_json(config);
    for (const auto* key : {"queue_depth", "batch_size", "cache_budget_bytes",
                            "facilities", "oracle", "adaptive", "analytics",
                            "graph_version"}) {
      EXPECT_TRUE(cfg.contains(key)) << key;
    }
    const auto wj = serve::to_json(wl);
    for (const auto* key : {"seed", "ticks", "arrivals_per_tick", "zipf_s",
                            "nearest_fraction", "root_universe",
                            "num_vertices"}) {
      EXPECT_TRUE(wj.contains(key)) << key;
    }
  });
}

TEST(ServeService, KernelRegistryRefusesAnIterationBudget) {
  // Every kernel runs to completion: a caller asking for an iteration
  // budget is refused, not silently given a full run.
  const auto list = graph::random_graph(48, 192, 8);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    const serve::KernelRegistry registry(serve::AnalyticsConfig{});
    EXPECT_THROW((void)registry.run(comm, g, serve::AnalyticsKernel::kPageRank,
                                    0, 0, nullptr, /*iter_budget=*/4),
                 std::invalid_argument);
  });
}

// The YCSB-style mixed workload: long analytics jobs run alongside the
// distance reads, and the scheduler (distance micro-batch first, at most
// one analytics job per tick) must keep the distance class inside its SLO
// while the analytics class still completes.
TEST(ServeService, MixedWorkloadNeverStarvesDistanceClass) {
  const auto list = graph::random_graph(96, 384, 41);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);

    WorkloadConfig wl;
    wl.seed = 13;
    wl.ticks = 48;
    wl.arrivals_per_tick = 2.5;
    wl.analytics_fraction = 0.35;  // heavy mix: every third arrival is a job
    wl.roots = {4, 17, 60};
    wl.num_vertices = g.num_vertices;

    ServeConfig config;
    config.batch_size = 4;
    config.queue_depth = 256;
    config.oracle.num_landmarks = 2;  // reachability short-circuit path

    const auto run = serve::run_workload(comm, g, config, Workload(wl),
                                         /*keep_answers=*/true);
    const auto& m = run.metrics;

    // Both classes flowed: distance reads AND analytics jobs completed.
    ASSERT_GT(m.analytics_arrived, 0u);
    EXPECT_GT(m.analytics_answered, 0u);
    const auto distance_answered = m.answered - m.analytics_answered;
    ASSERT_GT(distance_answered, 0u);

    // The no-starvation contract: the distance class never blows its SLO
    // even with analytics jobs interleaved (slo_violations is
    // distance-only by convention), and its tail stays at a few dispatch
    // deadlines, far below the horizon.
    EXPECT_EQ(m.slo_violations, 0u);
    EXPECT_LE(m.latency_ticks.quantile(0.99),
              4.0 * DistanceService::kMaxWaitTicks);

    // Whole-graph kernels are memoized on the immutable graph: at most
    // one execution per kernel, everything else is a memo hit, and every
    // answered job was either executed or served from the memo.
    EXPECT_EQ(m.analytics_answered, m.analytics_jobs + m.analytics_memo_hits);
    for (std::size_t k = 0; k < serve::kNumAnalyticsKernels; ++k) {
      if (static_cast<serve::AnalyticsKernel>(k) !=
          serve::AnalyticsKernel::kReachability) {
        EXPECT_LE(m.kernel_jobs[k], 1u) << "kernel slot " << k;
      }
    }

    // Determinism: repeated answers of the same whole-graph kernel carry
    // the identical digest (memo or not), and distance answers are still
    // bit-identical to fresh offline runs.
    std::map<serve::AnalyticsKernel, std::uint64_t> digest_of;
    std::map<graph::VertexId, core::SequentialResult> oracle;
    for (const auto& a : run.answers) {
      if (a.kind == QueryKind::kAnalytics) {
        if (a.outcome != serve::Outcome::kServed) continue;
        if (a.kernel == serve::AnalyticsKernel::kReachability) continue;
        const auto [it, fresh] = digest_of.emplace(a.kernel, a.digest);
        if (!fresh) {
          EXPECT_EQ(a.digest, it->second) << "query " << a.id;
        }
        continue;
      }
      if (a.kind != QueryKind::kPointToPoint ||
          a.outcome != serve::Outcome::kServed) {
        continue;
      }
      if (!oracle.count(a.root)) {
        const auto mine = core::delta_stepping(comm, g, a.root);
        oracle.emplace(a.root, core::gather_result(comm, g, mine));
      }
      EXPECT_EQ(a.distance, oracle.at(a.root).dist[a.target])
          << "query " << a.id;
    }
  });
}

// Oracle carry-over: a pruned wave's answer is exact at its target even
// though the slice never enters the root cache.  The point cache banks
// those values, so repeating the pair is a map lookup — same bits, no
// second wave.
TEST(ServeService, PointCacheServesRepeatedPrunedPair) {
  const auto list = graph::random_graph(96, 384, 41);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 4;
    config.oracle.num_landmarks = 2;  // loose bounds => pruned p2p waves
    DistanceService service(comm, g, config);

    // A spread of pairs: at least one must fall outside the oracle's
    // exact cases and run as a pruned wave.
    std::vector<Answer> first;
    std::uint64_t id = 0;
    std::uint64_t now = 0;
    for (const graph::VertexId root : {3, 29, 57}) {
      for (const graph::VertexId target : {11, 44, 91}) {
        Query q;
        q.id = id++;
        q.root = root;
        q.target = target;
        q.arrival_tick = now;
        ASSERT_TRUE(service.submit(q));
        for (const auto& a : service.tick(now++)) first.push_back(a);
      }
    }
    while (service.pending() > 0) {
      for (const auto& a : service.tick(now++, /*flush=*/true)) {
        first.push_back(a);
      }
    }
    std::vector<Answer> pruned;
    for (const auto& a : first) {
      if (a.outcome == serve::Outcome::kServed && a.pruned_wave) {
        pruned.push_back(a);
      }
    }
    ASSERT_GT(pruned.size(), 0u);
    EXPECT_EQ(service.metrics().point_cache_inserts, pruned.size());
    EXPECT_EQ(service.metrics().point_cache_hits, 0u);
    const auto waves_before = service.metrics().waves;

    // Replay every pruned pair: answered from the point cache with the
    // identical distance, and not a single new wave dispatches.
    for (const auto& p : pruned) {
      Query q;
      q.id = id++;
      q.root = p.root;
      q.target = p.target;
      q.arrival_tick = now;
      ASSERT_TRUE(service.submit(q));
      bool got = false;
      while (!got) {
        for (const auto& a : service.tick(now++, /*flush=*/true)) {
          ASSERT_EQ(a.root, p.root);
          ASSERT_EQ(a.target, p.target);
          EXPECT_TRUE(a.from_point_cache) << "pair " << p.root << "->"
                                          << p.target;
          EXPECT_EQ(a.outcome, serve::Outcome::kServed);
          EXPECT_EQ(a.distance, p.distance);
          EXPECT_EQ(a.lb, a.distance);
          EXPECT_EQ(a.ub, a.distance);
          got = true;
        }
      }
    }
    EXPECT_EQ(service.metrics().point_cache_hits, pruned.size());
    EXPECT_EQ(service.metrics().waves, waves_before);
  });
}

// The point cache is LRU-bounded: filling it past kPointCacheCap evicts
// the least recently used pair (here the oldest, since no pair is hit
// before it is evicted), which then misses and re-runs its wave.
TEST(ServeService, PointCacheEvictsFifoAtItsCap) {
  const auto list = graph::random_graph(96, 384, 41);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 64;  // one root per batch: one pruned wave banks many
    config.oracle.num_landmarks = 2;
    DistanceService service(comm, g, config);
    constexpr std::size_t kCap = DistanceService::kPointCacheCap;

    // Every pair of a root in one or two batches, root after root, until
    // more pairs are banked than the cache holds.
    std::vector<Answer> served;
    std::uint64_t id = 0;
    std::uint64_t now = 0;
    for (graph::VertexId root = 0;
         root < g.num_vertices && served.size() <= kCap; ++root) {
      for (graph::VertexId target = 0; target < g.num_vertices; ++target) {
        Query q;
        q.id = id++;
        q.root = root;
        q.target = target;
        q.arrival_tick = now;
        ASSERT_TRUE(service.submit(q));
        if (service.pending() < config.batch_size &&
            target + 1 < g.num_vertices) {
          continue;
        }
        for (const auto& a : service.tick(now++, /*flush=*/true)) {
          if (a.outcome == serve::Outcome::kServed && a.pruned_wave) {
            served.push_back(a);
          }
        }
      }
    }
    ASSERT_GT(served.size(), kCap);
    EXPECT_EQ(service.metrics().point_cache_inserts, served.size());
    EXPECT_EQ(service.metrics().point_cache_evictions, served.size() - kCap);
    // The oldest banked pair has been evicted: replaying it misses.
    const auto hits_before = service.metrics().point_cache_hits;
    Query q;
    q.id = id++;
    q.root = served.front().root;
    q.target = served.front().target;
    q.arrival_tick = now;
    ASSERT_TRUE(service.submit(q));
    std::vector<Answer> replay;
    while (replay.empty()) {
      for (const auto& a : service.tick(now++, /*flush=*/true)) {
        replay.push_back(a);
      }
    }
    EXPECT_FALSE(replay[0].from_point_cache);
    EXPECT_EQ(replay[0].distance, served.front().distance);
    EXPECT_EQ(service.metrics().point_cache_hits, hits_before);
  });
}

// ServiceMetrics::merge, the resilient driver's per-attempt accumulation:
// counters and timers add (the oracle precompute block too), while
// oracle_landmarks and the cache residency take the latest window's
// value.  The merged window serializes under its nested report keys.
TEST(ServiceMetricsMerge, AddsCountersAndKeepsLatestLevels) {
  serve::ServiceMetrics a;
  serve::ServiceMetrics b;
  a.arrived = 3;
  b.arrived = 4;
  a.analytics_jobs = 1;
  b.analytics_jobs = 2;
  b.point_persisted = 5;
  a.roots_retained = 6;
  a.wave_seconds = 0.5;
  b.wave_seconds = 0.25;
  a.oracle_landmarks = 4;
  b.oracle_landmarks = 8;
  a.oracle_precompute_waves = 4;
  b.oracle_precompute_waves = 8;
  a.kernel_jobs[0] = 1;
  b.kernel_jobs[0] = 2;
  a.latency_ticks.add(2);
  b.latency_ticks.add(3);
  a.cache.hits = 5;
  b.cache.hits = 1;
  a.cache.resident_entries = 7;
  b.cache.resident_entries = 2;
  a.merge(b);
  EXPECT_EQ(a.arrived, 7u);
  EXPECT_EQ(a.analytics_jobs, 3u);
  EXPECT_EQ(a.wave_seconds, 0.75);
  EXPECT_EQ(a.oracle_landmarks, 8u);
  EXPECT_EQ(a.oracle_precompute_waves, 12u);
  EXPECT_EQ(a.kernel_jobs[0], 3u);
  EXPECT_EQ(a.latency_ticks.total_count(), 2u);
  EXPECT_EQ(a.cache.hits, 6u);
  EXPECT_EQ(a.cache.resident_entries, 2u);

  const auto j = serve::to_json(a);
  EXPECT_EQ(j.at("arrived").as_uint64(), 7u);
  EXPECT_EQ(j.at("classes").at("analytics").at("jobs").as_uint64(), 3u);
  EXPECT_EQ(j.at("classes").at("distance").at("arrived").as_uint64(), 7u);
  EXPECT_EQ(j.at("point_cache").at("persisted").as_uint64(), 5u);
  EXPECT_EQ(j.at("invalidation").at("roots_retained").as_uint64(), 6u);
  EXPECT_EQ(j.at("oracle_landmarks").as_uint64(), 8u);
}

}  // namespace
