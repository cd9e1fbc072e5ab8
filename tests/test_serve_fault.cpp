// Fault-tolerant serving tests: the circuit breaker's three-state
// protocol, degraded answers from oracle bounds, and the resilient
// workload driver (crash -> backoff -> resume -> bit-identical answers,
// persisted oracle slices adopted across restarts, misconfiguration
// rethrown instead of retried).  Part of the CI chaos suite (ctest -L
// chaos).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/delta_stepping.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/driver.hpp"
#include "serve/fault.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"

namespace {

using namespace g500;
using serve::Answer;
using serve::BreakerState;
using serve::DistanceService;
using serve::FaultContext;
using serve::Outcome;
using serve::Query;
using serve::ServeConfig;
using serve::Workload;
using serve::WorkloadConfig;

graph::DistGraph build_test_graph(simmpi::Comm& comm,
                                  const graph::EdgeList& list) {
  return graph::build_distributed(
      comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
      list.num_vertices);
}

/// An open breaker refuses wave-needing queries, half-opens once the
/// cooldown expires, and a successful probe wave closes it again — all as
/// a pure function of the tick clock, so every rank agrees.
TEST(ServeFault, BreakerRefusesThenProbeCloses) {
  const auto list = graph::path_graph(16, 6);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 1;

    FaultContext ctx;
    ctx.breaker.state = BreakerState::kOpen;
    ctx.breaker.opened_tick = 0;
    DistanceService service(comm, g, config, &ctx);
    EXPECT_EQ(service.breaker().state, BreakerState::kOpen);

    // While open: no wave, no oracle to fall back on -> the query fails.
    Query q;
    q.id = 0;
    q.root = 0;
    q.target = 5;
    q.arrival_tick = 0;
    ASSERT_TRUE(service.submit(q));
    auto answers = service.tick(0);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0].outcome, Outcome::kFailed);
    EXPECT_TRUE(std::isinf(answers[0].distance));
    EXPECT_EQ(service.metrics().failed_queries, 1u);
    EXPECT_EQ(service.metrics().waves, 0u);

    // Still open one tick before the cooldown (8 ticks) expires.
    q.id = 1;
    q.arrival_tick = 7;
    ASSERT_TRUE(service.submit(q));
    answers = service.tick(7);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0].outcome, Outcome::kFailed);
    EXPECT_EQ(service.breaker().state, BreakerState::kOpen);

    // Cooldown expired: half-open admits exactly one probe wave, whose
    // completion closes the breaker and serves the query exactly.
    q.id = 2;
    q.arrival_tick = 8;
    ASSERT_TRUE(service.submit(q));
    answers = service.tick(8);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0].outcome, Outcome::kServed);
    EXPECT_EQ(service.breaker().state, BreakerState::kClosed);
    EXPECT_EQ(service.metrics().breaker_half_opened, 1u);
    EXPECT_EQ(service.metrics().breaker_closed, 1u);
    EXPECT_EQ(service.metrics().waves, 1u);

    const auto mine = core::delta_stepping(comm, g, 0);
    const auto want = core::gather_result(comm, g, mine);
    EXPECT_EQ(answers[0].distance, want.dist[5]);

    // Closed again: the probe wave's slice is cached and serves hits.
    q.id = 3;
    q.target = 7;
    q.arrival_tick = 9;
    ASSERT_TRUE(service.submit(q));
    answers = service.tick(9);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0].outcome, Outcome::kServed);
    EXPECT_TRUE(answers[0].from_cache);
  });
}

/// Point queries on an abandoned key degrade to the oracle's certified
/// lb/ub interval instead of failing.
TEST(ServeFault, DegradedAnswersAreOracleBrackets) {
  const auto list = graph::path_graph(24, 7);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 1;
    config.oracle.num_landmarks = 2;

    // Pick a root the oracle cannot settle exactly (not a landmark).
    graph::VertexId root = graph::kNoVertex;
    {
      DistanceService scout(comm, g, config);
      ASSERT_NE(scout.oracle(), nullptr);
      const auto& lm = scout.oracle()->landmarks();
      for (graph::VertexId v = 0; v < g.num_vertices; ++v) {
        if (std::find(lm.begin(), lm.end(), v) == lm.end()) {
          root = v;
          break;
        }
      }
    }
    ASSERT_NE(root, graph::kNoVertex);
    const graph::VertexId target = (root + 11) % g.num_vertices;

    const auto mine = core::delta_stepping(comm, g, root);
    const auto want = core::gather_result(comm, g, mine);
    const float exact = want.dist[target];
    ASSERT_TRUE(std::isfinite(exact));  // the path graph is connected

    FaultContext ctx;
    ctx.abandoned = {root};
    DistanceService service(comm, g, config, &ctx);
    Query q;
    q.id = 0;
    q.root = root;
    q.target = target;
    ASSERT_TRUE(service.submit(q));
    auto answers = service.tick(0);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0].outcome, Outcome::kDegraded);
    EXPECT_EQ(answers[0].distance, answers[0].ub);
    constexpr float kTol = 1e-4f;
    EXPECT_LE(answers[0].lb, exact + exact * kTol + kTol);
    EXPECT_GE(answers[0].ub, exact - exact * kTol - kTol);
    EXPECT_EQ(service.metrics().degraded, 1u);
    EXPECT_EQ(service.metrics().waves, 0u);
  });
}

/// The facility wave is one more key of the retry ledger: once its key
/// (graph::kNoVertex) is abandoned, nearest-facility queries skip the wave
/// and fail like the queries of any abandoned root.
TEST(ServeFault, AbandonedFacilityKeyRefusesTheFacilityWave) {
  const auto list = graph::path_graph(16, 6);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 2;
    config.facilities = {0, 9};

    FaultContext ctx;
    ctx.abandoned = {graph::kNoVertex};
    DistanceService service(comm, g, config, &ctx);
    Query q;
    q.kind = serve::QueryKind::kNearestFacility;
    for (std::uint64_t i = 0; i < 2; ++i) {
      q.id = i;
      q.target = 3 + i;
      ASSERT_TRUE(service.submit(q));
    }
    const auto answers = service.tick(0);
    ASSERT_EQ(answers.size(), 2u);
    for (const auto& a : answers) {
      EXPECT_EQ(a.outcome, Outcome::kFailed) << "query " << a.id;
      EXPECT_TRUE(std::isinf(a.distance)) << "query " << a.id;
    }
    EXPECT_EQ(service.metrics().failed_queries, 2u);
    EXPECT_EQ(service.metrics().waves, 0u);
  });
}

/// The resilient driver survives a mid-serving crash: it backs off,
/// restarts the world, re-admits the backlog, resumes the interrupted
/// wave from its checkpoint — and every answer is bit-identical to an
/// undisturbed run's.
TEST(ServeFault, ResilientDriverSurvivesCrashBitIdentical) {
  const auto list = graph::random_graph(128, 512, 24);
  const int P = 4;
  const int victim = 1;
  const auto build = [&](simmpi::Comm& comm) {
    return build_test_graph(comm, list);
  };

  WorkloadConfig wl;
  wl.seed = 17;
  wl.ticks = 12;
  wl.arrivals_per_tick = 2.0;
  wl.zipf_s = 1.1;
  wl.roots = {3, 11, 42};
  wl.num_vertices = list.num_vertices;
  const Workload workload(wl);

  ServeConfig config;
  config.batch_size = 4;
  config.queue_depth = 256;  // no shedding: fates must match exactly

  serve::ResilientServeOptions opts;
  opts.keep_answers = true;

  // Probe the victim's collective counts: one explicit build, then a
  // clean resilient run (its own build + the serving loop).
  std::uint64_t setup_calls = 0;
  std::uint64_t total_calls = 0;
  serve::ServingRunReport clean;
  {
    simmpi::World probe(P);
    probe.set_fault_plan(simmpi::FaultPlan{});
    probe.run([&](simmpi::Comm& comm) { (void)build(comm); });
    setup_calls = probe.injector()->collective_calls(victim);
    clean = serve::run_workload_resilient(probe, build, config, workload,
                                          opts);
    total_calls = probe.injector()->collective_calls(victim);
  }
  ASSERT_EQ(clean.availability.attempts, 1u);
  ASSERT_GT(clean.answers.size(), 0u);
  ASSERT_GT(total_calls, 2 * setup_calls + 8);
  // On a fresh world the resilient run builds once, so its serving loop
  // spans [setup, total - setup).  Crash halfway through it.
  const std::uint64_t crash_at =
      setup_calls + (total_calls - 2 * setup_calls) / 2;

  simmpi::World world(P);
  world.set_fault_plan(simmpi::FaultPlan{}.crash(victim, crash_at));
  const auto chaos =
      serve::run_workload_resilient(world, build, config, workload, opts);

  EXPECT_EQ(world.injector()->events_fired(), 1u);
  EXPECT_GE(chaos.availability.attempts, 2u);
  EXPECT_EQ(chaos.availability.wave_retries, 1u);
  EXPECT_GT(chaos.availability.backoff_seconds, 0.0);
  EXPECT_GT(chaos.availability.recovery_ticks, 0u);
  EXPECT_EQ(chaos.availability.failed, 0u);
  EXPECT_EQ(chaos.availability.waves_abandoned, 0u);
  EXPECT_DOUBLE_EQ(chaos.availability.availability(), 1.0);

  // Same fates, same bits.
  std::map<std::uint64_t, float> reference;
  for (const auto& a : clean.answers) {
    EXPECT_EQ(a.outcome, Outcome::kServed);
    reference.emplace(a.id, a.distance);
  }
  ASSERT_EQ(chaos.answers.size(), clean.answers.size());
  for (const auto& a : chaos.answers) {
    EXPECT_EQ(a.outcome, Outcome::kServed) << "query " << a.id;
    const auto it = reference.find(a.id);
    ASSERT_NE(it, reference.end()) << "query " << a.id;
    EXPECT_EQ(a.distance, it->second) << "query " << a.id;
  }
}

/// Caller-owned oracle stores survive across resilient runs: the second
/// run adopts the persisted slices with zero precompute waves and still
/// answers identically.
TEST(ServeFault, ResilientRestartAdoptsPersistedOracleSlices) {
  const auto list = graph::random_graph(96, 400, 33);
  const int P = 2;
  const auto build = [&](simmpi::Comm& comm) {
    return build_test_graph(comm, list);
  };

  WorkloadConfig wl;
  wl.seed = 5;
  wl.ticks = 8;
  wl.arrivals_per_tick = 2.0;
  wl.roots = {1, 9, 17};
  wl.num_vertices = list.num_vertices;
  const Workload workload(wl);

  ServeConfig config;
  config.queue_depth = 256;
  config.oracle.num_landmarks = 2;

  std::vector<serve::OracleSliceStore> stores;
  serve::ResilientServeOptions opts;
  opts.keep_answers = true;
  opts.oracle_stores = &stores;

  simmpi::World world(P);
  const auto first =
      serve::run_workload_resilient(world, build, config, workload, opts);
  EXPECT_FALSE(first.availability.oracle_restored);
  EXPECT_GT(first.metrics.oracle_precompute_waves, 0u);
  ASSERT_EQ(stores.size(), static_cast<std::size_t>(P));
  for (const auto& s : stores) EXPECT_TRUE(s.valid());

  const auto restarted =
      serve::run_workload_resilient(world, build, config, workload, opts);
  EXPECT_TRUE(restarted.availability.oracle_restored);
  EXPECT_EQ(restarted.metrics.oracle_precompute_waves, 0u);

  ASSERT_EQ(restarted.answers.size(), first.answers.size());
  for (std::size_t i = 0; i < first.answers.size(); ++i) {
    EXPECT_EQ(restarted.answers[i].id, first.answers[i].id);
    EXPECT_EQ(restarted.answers[i].distance, first.answers[i].distance)
        << "query " << first.answers[i].id;
  }
}

/// Only injected faults are retried: a misconfigured service throws on
/// the first attempt, after one graph build, instead of burning the
/// attempt budget on rebuilds that fail the same way.
TEST(ServeFault, ResilientDriverRethrowsMisconfiguration) {
  const auto list = graph::random_graph(64, 256, 12);
  std::atomic<int> builds{0};
  const auto build = [&](simmpi::Comm& comm) {
    if (comm.rank() == 0) ++builds;
    return build_test_graph(comm, list);
  };
  WorkloadConfig wl;
  wl.ticks = 4;
  wl.roots = {1, 2};
  wl.num_vertices = list.num_vertices;
  ServeConfig config;
  config.batch_size = 0;

  simmpi::World world(2);
  EXPECT_THROW((void)serve::run_workload_resilient(world, build, config,
                                                   Workload(wl)),
               std::invalid_argument);
  EXPECT_EQ(builds.load(), 1);
}

}  // namespace
