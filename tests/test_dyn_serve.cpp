// Version-aware serving over streaming mutations: caches must fail
// closed on a graph-version mismatch, scoped invalidation must retain
// exactly the artifacts the oracle brackets prove untouched (answers
// staying bit-identical to a fresh recompute on the mutated graph), and
// the persisted point cache must round-trip behind its digest gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/delta_stepping.hpp"
#include "dyn/mutable_graph.hpp"
#include "graph/builder.hpp"
#include "serve/cache.hpp"
#include "serve/fault.hpp"
#include "serve/service.hpp"
#include "simmpi/comm.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using namespace g500::graph;
using dyn::MutableGraph;
using serve::Answer;
using serve::DistanceService;
using serve::Query;
using serve::QueryKind;
using serve::ServeConfig;

/// Two disjoint ring-plus-chords components: A = [0, n/2), B = [n/2, n).
/// Cross-component verdicts become exact unreachability proofs, so an
/// edit inside B provably cannot touch any artifact rooted in A.
EdgeList two_component_graph(VertexId n) {
  EdgeList input;
  input.num_vertices = n;
  const VertexId half = n / 2;
  util::SplitMix64 rng(0xFEED5);
  const auto w = [&rng] {
    return static_cast<Weight>(0.5 + rng.next_double());
  };
  for (VertexId v = 0; v < half; ++v) {
    input.edges.push_back(Edge{v, (v + 1) % half, w()});
    input.edges.push_back(Edge{half + v, half + (v + 1) % half, w()});
  }
  for (int i = 0; i < 12; ++i) {
    input.edges.push_back(Edge{rng.next_below(half), rng.next_below(half),
                               w()});
    input.edges.push_back(Edge{half + rng.next_below(half),
                               half + rng.next_below(half), w()});
  }
  return input;
}

DistGraph build_piece(simmpi::Comm& comm, const EdgeList& list) {
  return build_distributed(
      comm, slice_for_rank(list, comm.rank(), comm.size()),
      list.num_vertices);
}

/// Push one point-to-point query through the service synchronously.
Answer ask(DistanceService& svc, std::uint64_t& id, std::uint64_t& tick,
           VertexId root, VertexId target) {
  Query q;
  q.id = id++;
  q.arrival_tick = tick;
  q.kind = QueryKind::kPointToPoint;
  q.root = root;
  q.target = target;
  EXPECT_TRUE(svc.submit(q));
  const auto answers = svc.tick(tick++, /*flush=*/true);
  EXPECT_EQ(answers.size(), 1u);
  return answers.front();
}

/// Push one analytics job through the service synchronously.
Answer run_job(DistanceService& svc, std::uint64_t& id, std::uint64_t& tick,
               serve::AnalyticsKernel kernel) {
  Query q;
  q.id = id++;
  q.arrival_tick = tick;
  q.kind = QueryKind::kAnalytics;
  q.kernel = kernel;
  EXPECT_TRUE(svc.submit(q));
  const auto answers = svc.tick(tick++, /*flush=*/true);
  EXPECT_EQ(answers.size(), 1u);
  return answers.front();
}

/// The fresh-recompute value of d(root, target) on the current view.
Weight fresh_distance(simmpi::Comm& comm, const DistGraph& g, VertexId root,
                      VertexId target) {
  const auto mine = core::delta_stepping(comm, g, root);
  return core::gather_result(comm, g, mine).dist[target];
}

TEST(DynServe, RootCacheVersioningFailsClosed) {
  const auto slice_of = [](Weight value) {
    return std::make_shared<const std::vector<Weight>>(64, value);
  };
  serve::VersionedStore<VertexId, serve::Slice> cache(256,
                                                      64 * sizeof(Weight));
  cache.insert(5, slice_of(1.0f), /*version=*/1);
  cache.insert(9, slice_of(2.0f), /*version=*/1);
  cache.insert(12, slice_of(3.0f), /*version=*/1);
  ASSERT_NE(cache.lookup(5, 1), nullptr);

  // Version mismatch: the entry is dropped and the lookup is a miss.
  EXPECT_EQ(cache.lookup(5, 2), nullptr);
  EXPECT_FALSE(cache.contains(5));
  EXPECT_EQ(cache.stats().version_misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().resident_entries, 2u);

  // One invalidation pass: 9 is retained and restamped, 12 is dropped.
  const auto counts =
      cache.retain_if([](VertexId key) { return key == 9; }, 2);
  EXPECT_EQ(counts.kept, 1u);
  EXPECT_EQ(counts.dropped, 1u);
  EXPECT_EQ(cache.stats().resident_entries, 1u);
  EXPECT_FALSE(cache.contains(12));
  // The retained-and-restamped entry answers at the new version.
  EXPECT_NE(cache.lookup(9, 2), nullptr);
  EXPECT_EQ(cache.keys(), std::vector<VertexId>{9});
}

/// Scoped invalidation across a mutation confined to component B: point
/// entries rooted in component A survive (and keep answering), the
/// landmark slices of A never re-solve, and every post-update answer is
/// bit-identical to a fresh recompute on the mutated graph.
TEST(DynServe, ScopedInvalidationRetainsOtherComponent) {
  const VertexId n = 128;
  const auto list = two_component_graph(n);
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    MutableGraph mg(comm, build_piece(comm, list));

    ServeConfig config;
    config.queue_depth = 64;
    config.oracle.num_landmarks = 4;
    config.graph_version = mg.version();
    DistanceService svc(comm, mg.view(), config);
    ASSERT_EQ(svc.graph_version(), 0u);

    std::uint64_t id = 0;
    std::uint64_t tick = 0;
    const auto a1 = ask(svc, id, tick, 5, 40);    // component A
    const auto b1 = ask(svc, id, tick, 70, 100);  // component B
    EXPECT_EQ(a1.graph_version, 0u);
    EXPECT_EQ(a1.distance, fresh_distance(comm, mg.view(), 5, 40));
    EXPECT_EQ(b1.distance, fresh_distance(comm, mg.view(), 70, 100));

    // A drastic shortcut entirely inside B.
    if (comm.rank() == 0) mg.stage_insert(80, 120, 0.05f);
    const auto summary = mg.commit_batch();
    ASSERT_EQ(summary.edges_applied(), 1u);
    svc.note_graph_update(summary);
    EXPECT_EQ(svc.graph_version(), mg.version());

    auto& m = svc.metrics();
    EXPECT_EQ(m.graph_updates, 1u);
    EXPECT_EQ(m.update_edges_applied, 1u);
    EXPECT_EQ(m.wholesale_flushes, 0u);
    // The A-rooted point entries are provably untouched (cross-component
    // unreachability) and must survive the commit.
    EXPECT_GE(m.points_retained, 1u);
    // At least B's landmark re-solves; A's landmarks (which see neither
    // endpoint) must not — scoped, not wholesale.
    EXPECT_GE(m.slices_refreshed, 1u);
    EXPECT_LT(m.slices_refreshed, m.oracle_landmarks);

    // Post-update answers are bit-identical to a fresh recompute on the
    // mutated graph, for retained roots and invalidated ones alike.
    const auto a2 = ask(svc, id, tick, 5, 40);
    const auto b2 = ask(svc, id, tick, 70, 100);
    EXPECT_EQ(a2.graph_version, mg.version());
    EXPECT_EQ(b2.graph_version, mg.version());
    EXPECT_EQ(a2.distance, fresh_distance(comm, mg.view(), 5, 40));
    EXPECT_EQ(b2.distance, fresh_distance(comm, mg.view(), 70, 100));
    EXPECT_EQ(a2.distance, a1.distance);  // A provably unchanged
  });
}

/// A commit whose staged ops all merge to no-ops only bumps the version:
/// nothing is invalidated, artifacts are restamped and keep answering.
TEST(DynServe, EmptyCommitRestampsWithoutInvalidation) {
  const auto list = two_component_graph(64);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    MutableGraph mg(comm, build_piece(comm, list));
    ServeConfig config;
    config.oracle.num_landmarks = 3;
    config.graph_version = mg.version();
    DistanceService svc(comm, mg.view(), config);

    std::uint64_t id = 0;
    std::uint64_t tick = 0;
    const auto before = ask(svc, id, tick, 3, 20);

    const auto summary = mg.commit_batch();  // nothing staged
    ASSERT_EQ(summary.edges_applied(), 0u);
    svc.note_graph_update(summary);
    EXPECT_EQ(svc.graph_version(), mg.version());

    const auto& m = svc.metrics();
    EXPECT_EQ(m.points_invalidated, 0u);
    EXPECT_EQ(m.roots_invalidated, 0u);
    EXPECT_EQ(m.slices_refreshed, 0u);

    const std::uint64_t hits_before = m.point_cache_hits;
    const auto after = ask(svc, id, tick, 3, 20);
    EXPECT_EQ(after.distance, before.distance);
    EXPECT_EQ(after.graph_version, mg.version());
    if (before.pruned_wave) {
      // The banked point entry survived the restamp and answered.
      EXPECT_TRUE(after.from_point_cache);
      EXPECT_GT(svc.metrics().point_cache_hits, hits_before);
    }
  });
}

/// A version-only bump moves the service and the oracle to the new
/// version, so the persistence slot must move with them: a restart at
/// the new version adopts both blobs instead of recomputing.
TEST(DynServe, EmptyCommitKeepsPersistedSlotAdoptable) {
  const auto list = two_component_graph(64);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    MutableGraph mg(comm, build_piece(comm, list));
    serve::OracleSliceStore store;
    ServeConfig config;
    config.oracle.num_landmarks = 3;
    config.graph_version = mg.version();

    Weight banked = 0.0f;
    {
      serve::FaultContext ctx;
      ctx.oracle_store = &store;
      DistanceService svc(comm, mg.view(), config, &ctx);
      std::uint64_t id = 0;
      std::uint64_t tick = 0;
      const auto a = ask(svc, id, tick, 3, 20);
      ASSERT_TRUE(a.pruned_wave);  // banks the point entry
      banked = a.distance;

      const auto summary = mg.commit_batch();  // nothing staged
      ASSERT_EQ(summary.edges_applied(), 0u);
      svc.note_graph_update(summary);
      ASSERT_EQ(svc.graph_version(), mg.version());
    }

    ServeConfig restart = config;
    restart.graph_version = mg.version();
    serve::FaultContext ctx;
    ctx.oracle_store = &store;
    DistanceService svc(comm, mg.view(), restart, &ctx);
    ASSERT_NE(svc.oracle(), nullptr);
    EXPECT_TRUE(svc.oracle()->restored_from_store());
    EXPECT_EQ(svc.oracle()->precompute_waves(), 0u);
    EXPECT_EQ(svc.metrics().point_restored, 1u);
    EXPECT_EQ(svc.metrics().point_cache_inserts, 0u);

    std::uint64_t id = 100;
    std::uint64_t tick = 0;
    const auto a = ask(svc, id, tick, 3, 20);
    EXPECT_TRUE(a.from_point_cache);
    EXPECT_EQ(a.distance, banked);
    EXPECT_EQ(a.graph_version, mg.version());
  });
}

/// Whole-graph kernel memos are stamped like every other store entry: a
/// commit that changes an edge drops them, a version-only bump keeps them.
TEST(DynServe, AnalyticsMemoDropsOnChangeAndSurvivesVersionOnlyBump) {
  const VertexId n = 64;
  const auto list = two_component_graph(n);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    MutableGraph mg(comm, build_piece(comm, list));
    ServeConfig config;
    config.oracle.num_landmarks = 3;
    config.graph_version = mg.version();
    DistanceService svc(comm, mg.view(), config);
    constexpr auto kComponents = serve::AnalyticsKernel::kComponents;

    std::uint64_t id = 0;
    std::uint64_t tick = 0;
    const auto first = run_job(svc, id, tick, kComponents);
    EXPECT_FALSE(first.from_cache);
    EXPECT_EQ(first.value, 2.0);
    const auto repeat = run_job(svc, id, tick, kComponents);
    EXPECT_TRUE(repeat.from_cache);
    EXPECT_EQ(repeat.digest, first.digest);

    // One edge joins the components: no memo hit may cross it.
    if (comm.rank() == 0) mg.stage_insert(3, n / 2 + 3, 1.0f);
    const auto join = mg.commit_batch();
    ASSERT_EQ(join.edges_applied(), 1u);
    svc.note_graph_update(join);
    EXPECT_EQ(svc.metrics().memo_invalidated, 1u);
    const auto joined = run_job(svc, id, tick, kComponents);
    EXPECT_FALSE(joined.from_cache);
    EXPECT_EQ(joined.value, 1.0);
    EXPECT_EQ(joined.graph_version, mg.version());

    // A version-only bump restamps the memo: still a hit, same digest.
    const auto empty = mg.commit_batch();
    ASSERT_EQ(empty.edges_applied(), 0u);
    svc.note_graph_update(empty);
    const auto again = run_job(svc, id, tick, kComponents);
    EXPECT_TRUE(again.from_cache);
    EXPECT_EQ(again.digest, joined.digest);
    EXPECT_EQ(again.graph_version, mg.version());

    const auto& m = svc.metrics();
    EXPECT_EQ(m.memo_invalidated, 1u);
    EXPECT_EQ(m.analytics_jobs, 2u);
    EXPECT_EQ(m.analytics_memo_hits, 2u);
  });
}

/// Without an oracle there is no bracket to scope with: every cached
/// artifact flushes wholesale, and answers stay correct on the new graph.
TEST(DynServe, WholesaleFlushWithoutOracle) {
  const auto list = two_component_graph(64);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    MutableGraph mg(comm, build_piece(comm, list));
    ServeConfig config;  // no oracle
    config.graph_version = mg.version();
    DistanceService svc(comm, mg.view(), config);

    std::uint64_t id = 0;
    std::uint64_t tick = 0;
    (void)ask(svc, id, tick, 3, 20);
    // Without an oracle the root slice is cached; a repeat hits it.
    const auto repeat = ask(svc, id, tick, 3, 20);
    EXPECT_TRUE(repeat.from_cache);

    if (comm.rank() == 0) mg.stage_insert(3, 20, 0.01f);
    const auto summary = mg.commit_batch();
    svc.note_graph_update(summary);

    const auto& m = svc.metrics();
    EXPECT_EQ(m.wholesale_flushes, 1u);
    EXPECT_GE(m.roots_invalidated, 1u);
    EXPECT_EQ(m.cache.resident_entries, 0u);

    const auto after = ask(svc, id, tick, 3, 20);
    EXPECT_FALSE(after.from_cache);
    EXPECT_EQ(after.distance, fresh_distance(comm, mg.view(), 3, 20));
    EXPECT_EQ(after.distance, 0.01f);
  });
}

/// The exact point cache persists next to the oracle slices and is
/// adopted back behind the digest gate; a version bump fails the gate
/// closed on both artifacts.
TEST(DynServe, PointCachePersistsAndFailsClosedOnVersionBump) {
  const auto list = two_component_graph(64);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_piece(comm, list);
    serve::OracleSliceStore store;
    ServeConfig config;
    config.oracle.num_landmarks = 3;
    config.graph_version = 7;

    Weight banked = 0.0f;
    bool have_banked = false;
    {
      serve::FaultContext ctx;
      ctx.oracle_store = &store;
      DistanceService svc(comm, g, config, &ctx);
      std::uint64_t id = 0;
      std::uint64_t tick = 0;
      const auto a = ask(svc, id, tick, 3, 20);
      banked = a.distance;
      have_banked = a.pruned_wave;  // only pruned waves bank point entries
      svc.persist_point_cache(store);
      if (have_banked) {
        EXPECT_GE(svc.metrics().point_persisted, 1u);
      }
    }
    ASSERT_TRUE(store.valid());
    ASSERT_FALSE(store.point_blob.empty());

    // Same graph version: both blobs adopt — zero precompute waves, and
    // the banked point answers without any wave or oracle pass.
    {
      serve::FaultContext ctx;
      ctx.oracle_store = &store;
      DistanceService svc(comm, g, config, &ctx);
      ASSERT_NE(svc.oracle(), nullptr);
      EXPECT_TRUE(svc.oracle()->restored_from_store());
      EXPECT_EQ(svc.oracle()->precompute_waves(), 0u);
      if (have_banked) {
        EXPECT_GE(svc.metrics().point_restored, 1u);
        std::uint64_t id = 100;
        std::uint64_t tick = 0;
        const auto a = ask(svc, id, tick, 3, 20);
        EXPECT_TRUE(a.from_point_cache);
        EXPECT_EQ(a.distance, banked);
      }
    }

    // Bumped graph version: the digest gate rejects BOTH blobs (a
    // mutated graph must never resurrect pre-mutation artifacts).
    {
      ServeConfig stale = config;
      stale.graph_version = 8;
      serve::FaultContext ctx;
      ctx.oracle_store = &store;
      DistanceService svc(comm, g, stale, &ctx);
      ASSERT_NE(svc.oracle(), nullptr);
      EXPECT_FALSE(svc.oracle()->restored_from_store());
      EXPECT_GT(svc.oracle()->precompute_waves(), 0u);
      EXPECT_EQ(svc.metrics().point_restored, 0u);
    }
  });
}

}  // namespace
