// Landmark (ALT) oracle and adaptive-batching tests: triangle-inequality
// bounds must bracket the true distance on every graph shape, answers
// served through goal-directed pruned waves must stay bit-identical to
// unpruned ones, cross-component pairs must be settled without a wave,
// and the batch controller must converge on step-change arrival rates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/delta_stepping.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/adaptive.hpp"
#include "serve/driver.hpp"
#include "serve/fault.hpp"
#include "serve/oracle.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "simmpi/comm.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using serve::AdaptiveBatchController;
using serve::DistanceService;
using serve::LandmarkOracle;
using serve::OracleConfig;
using serve::Query;
using serve::QueryKind;
using serve::ServeConfig;

graph::DistGraph build_test_graph(simmpi::Comm& comm,
                                  const graph::EdgeList& list) {
  return graph::build_distributed(
      comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
      list.num_vertices);
}

/// Loose float slack for soundness checks: the bounds hold exactly in the
/// metric, but engine distances carry per-hop rounding.
constexpr float kTol = 1e-4f;

/// lb <= d(s, t) <= ub for every pair on path, ring, star, grid and
/// random shapes — the shapes stress diameter, hub skew and disconnection
/// differently.
TEST(ServeOracle, BoundsSoundOnEveryShape) {
  const std::vector<graph::EdgeList> shapes = {
      graph::path_graph(48, 3),      graph::ring_graph(40, 5),
      graph::star_graph(33, 7),      graph::grid_graph(6, 8, 9),
      graph::random_graph(64, 200, 11)};
  for (const auto& list : shapes) {
    simmpi::World world(3);
    world.run([&](simmpi::Comm& comm) {
      const auto g = build_test_graph(comm, list);
      OracleConfig oc;
      oc.num_landmarks = 4;
      LandmarkOracle oracle(comm, g, oc, 0);
      ASSERT_GE(oracle.landmarks().size(), 1u);

      // Ground truth from full waves rooted at a few sources.
      const std::vector<graph::VertexId> sources = {0, list.num_vertices / 2,
                                                    list.num_vertices - 1};
      std::vector<graph::VertexId> verts;
      for (graph::VertexId v = 0; v < list.num_vertices; ++v) {
        verts.push_back(v);
      }
      const auto rows = oracle.landmark_distances(verts);
      for (const auto s : sources) {
        const auto mine = core::delta_stepping(comm, g, s);
        const auto want = core::gather_result(comm, g, mine);
        for (graph::VertexId t = 0; t < list.num_vertices; ++t) {
          const auto b = oracle.bounds(rows[s], rows[t], s, t);
          const float d = want.dist[t];
          if (std::isinf(d)) {
            // Any finite upper bound would witness a path that isn't there.
            EXPECT_TRUE(std::isinf(b.ub)) << "s=" << s << " t=" << t;
          } else {
            EXPECT_LE(b.lb, d + d * kTol + kTol) << "s=" << s << " t=" << t;
            EXPECT_GE(b.ub, d - d * kTol - kTol) << "s=" << s << " t=" << t;
            EXPECT_FALSE(b.unreachable) << "s=" << s << " t=" << t;
          }
          if (b.exact) {
            EXPECT_EQ(b.ub, d) << "exact hit must be bit-identical, s=" << s
                               << " t=" << t;
          }
        }
      }
    });
  }
}

/// A service with the oracle enabled must return the same bits as one
/// without it — goal-directed pruning may skip work, never change the
/// answer — while actually pruning relaxations.
TEST(ServeOracle, PrunedAnswersBitIdenticalToFullWaves) {
  const auto list = graph::random_graph(160, 640, 21);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);

    serve::WorkloadConfig wl;
    wl.seed = 13;
    wl.ticks = 12;
    wl.arrivals_per_tick = 2.0;
    wl.zipf_s = 0.0;  // uniform over a wide universe: mostly cold queries
    for (graph::VertexId v = 0; v < g.num_vertices; v += 5) {
      wl.roots.push_back(v);
    }
    wl.num_vertices = g.num_vertices;
    const serve::Workload workload(wl);

    ServeConfig off;
    off.cache_budget_bytes = 0;  // every answer from a fresh wave
    off.queue_depth = 256;
    ServeConfig on = off;
    on.oracle.num_landmarks = 6;

    const auto full = serve::run_workload(comm, g, off, workload, true);
    const auto pruned = serve::run_workload(comm, g, on, workload, true);
    ASSERT_EQ(full.answers.size(), pruned.answers.size());
    ASSERT_GT(full.answers.size(), 0u);
    for (std::size_t i = 0; i < full.answers.size(); ++i) {
      EXPECT_EQ(full.answers[i].id, pruned.answers[i].id);
      EXPECT_EQ(full.answers[i].distance, pruned.answers[i].distance)
          << "query " << full.answers[i].id << " root "
          << full.answers[i].root << " target " << full.answers[i].target
          << " pruned_wave " << pruned.answers[i].pruned_wave
          << " from_oracle " << pruned.answers[i].from_oracle;
    }
    // The oracle run must really have gone goal-directed...
    EXPECT_GT(pruned.metrics.pruned_waves, 0u);
    EXPECT_GT(pruned.pruned_expand + pruned.pruned_apply, 0u);
    // ...and pruned waves generate strictly less relaxation work.
    EXPECT_LT(pruned.relax_generated, full.relax_generated);
  });
}

/// Queries whose root is a landmark are answered from the precomputed
/// slice without dispatching any wave, bit-identical to a fresh one.
TEST(ServeOracle, LandmarkRootsAnsweredWithoutAWave) {
  const auto list = graph::random_graph(96, 400, 33);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.oracle.num_landmarks = 4;
    config.cache_budget_bytes = 0;
    DistanceService service(comm, g, config);
    ASSERT_NE(service.oracle(), nullptr);
    const auto landmarks = service.oracle()->landmarks();
    ASSERT_GE(landmarks.size(), 1u);

    Query q;
    q.root = landmarks[0];
    q.target = 7;
    ASSERT_TRUE(service.submit(q));
    const auto answers = service.drain(0);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_TRUE(answers[0].from_oracle);

    const auto mine = core::delta_stepping(comm, g, landmarks[0]);
    const auto want = core::gather_result(comm, g, mine);
    EXPECT_EQ(answers[0].distance, want.dist[7]);
    EXPECT_EQ(service.metrics().waves, 0u);
    EXPECT_GT(service.metrics().oracle_exact, 0u);
  });
}

/// Cross-component pairs are proven unreachable by the landmark rows and
/// never dispatch a wave.
TEST(ServeOracle, DisconnectedPairsSettledWithoutAWave) {
  // Two disjoint paths: 0..15 and 16..31.
  graph::EdgeList list = graph::path_graph(16, 5);
  const auto other = graph::path_graph(16, 6);
  for (auto e : other.edges) {
    e.src += 16;
    e.dst += 16;
    list.edges.push_back(e);
  }
  list.num_vertices = 32;

  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.oracle.num_landmarks = 3;  // farthest-point seeds both components
    config.cache_budget_bytes = 0;
    DistanceService service(comm, g, config);

    Query q;
    q.id = 1;
    q.root = 2;    // first component
    q.target = 20; // second component
    ASSERT_TRUE(service.submit(q));
    const auto answers = service.drain(0);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_TRUE(answers[0].from_oracle);
    EXPECT_TRUE(std::isinf(answers[0].distance));
    EXPECT_EQ(service.metrics().waves, 0u);
    EXPECT_EQ(service.metrics().oracle_unreachable, 1u);
  });
}

/// The controller must track a step change in the arrival rate: knobs
/// sized for the low regime before the step, for the high regime after.
/// Its ranges are batch 1..32 and wait 1..8 ticks, and it aims for a full
/// batch every 2 ticks.
TEST(ServeOracle, AdaptiveControllerConvergesOnStepChange) {
  AdaptiveBatchController ctl(8, 4);

  for (int i = 0; i < 40; ++i) ctl.observe(2);
  EXPECT_NEAR(ctl.rate(), 2.0, 0.05);
  EXPECT_EQ(ctl.batch_size(), 4u);        // 2/tick * 2 ticks
  EXPECT_EQ(ctl.max_wait_ticks(), 2u);    // 4 / 2 per tick

  for (int i = 0; i < 40; ++i) ctl.observe(24);
  EXPECT_NEAR(ctl.rate(), 24.0, 0.5);
  EXPECT_EQ(ctl.batch_size(), 32u);       // 24 * 2 = 48, clamped to max
  EXPECT_EQ(ctl.max_wait_ticks(), 1u);    // 32 / 24 per tick
  EXPECT_GE(ctl.adjustments(), 2u);

  // Silence: the rate decays and the deadline stretches to its cap.
  for (int i = 0; i < 200; ++i) ctl.observe(0);
  EXPECT_EQ(ctl.batch_size(), 1u);
  EXPECT_EQ(ctl.max_wait_ticks(), 8u);
}

/// End-to-end: an adaptive service answers the whole workload and its
/// knob trajectory agrees across ranks (it is a pure function of the
/// shared submission sequence).
TEST(ServeOracle, AdaptiveServiceAnswersEverythingConsistently) {
  const auto list = graph::random_graph(80, 320, 19);
  const int ranks = 3;
  std::vector<std::vector<std::uint64_t>> per_rank(ranks);
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    serve::WorkloadConfig wl;
    wl.seed = 23;
    wl.ticks = 24;
    wl.arrivals_per_tick = 6.0;
    wl.roots = {1, 9, 17, 33};
    wl.num_vertices = g.num_vertices;
    ServeConfig config;
    config.queue_depth = 512;
    config.adaptive = true;
    const auto run = serve::run_workload(comm, g, config, serve::Workload(wl));
    EXPECT_EQ(run.metrics.answered, run.metrics.admitted);
    per_rank[static_cast<std::size_t>(comm.rank())] = {
        run.metrics.answered, run.metrics.batches, run.metrics.waves,
        run.metrics.adaptive_adjustments};
  });
  for (int r = 1; r < ranks; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], per_rank[0])
        << "rank " << r;
  }
}

/// Persisted slices round-trip: a second oracle over the same graph and
/// config adopts the stored blob with ZERO precompute waves and serves
/// bit-identical landmark rows.
TEST(ServeOracle, SliceStoreRoundTripSkipsPrecompute) {
  const auto list = graph::random_graph(96, 400, 27);
  const int ranks = 2;
  std::vector<serve::OracleSliceStore> stores(ranks);
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    OracleConfig oc;
    oc.num_landmarks = 3;
    auto& store = stores[static_cast<std::size_t>(comm.rank())];

    LandmarkOracle fresh(comm, g, oc, 0, &store);
    EXPECT_FALSE(fresh.restored_from_store());
    EXPECT_GT(fresh.precompute_waves(), 0u);
    ASSERT_TRUE(store.valid());

    LandmarkOracle adopted(comm, g, oc, 0, &store);
    EXPECT_TRUE(adopted.restored_from_store());
    EXPECT_EQ(adopted.precompute_waves(), 0u);
    EXPECT_EQ(adopted.landmarks(), fresh.landmarks());

    std::vector<graph::VertexId> verts;
    for (graph::VertexId v = 0; v < g.num_vertices; v += 7) {
      verts.push_back(v);
    }
    const auto want = fresh.landmark_distances(verts);
    const auto got = adopted.landmark_distances(verts);
    EXPECT_EQ(got, want);  // bit-identical rows, not just equivalent
  });
}

/// The adopt gate is all-or-nothing across ranks: one rank's rotten blob
/// forces EVERY rank to recompute (no rank may adopt while another
/// recomputes — the waves are collective), and the recompute overwrites
/// the store so the next restart adopts again.
TEST(ServeOracle, SliceStoreDigestMismatchForcesGlobalRecompute) {
  const auto list = graph::random_graph(80, 320, 41);
  const int ranks = 2;
  std::vector<serve::OracleSliceStore> stores(ranks);
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    OracleConfig oc;
    oc.num_landmarks = 2;
    auto& store = stores[static_cast<std::size_t>(comm.rank())];
    LandmarkOracle fresh(comm, g, oc, 0, &store);
    ASSERT_TRUE(store.valid());

    // Bit rot in rank 0's slot only.
    if (comm.rank() == 0) store.blob[store.blob.size() / 2] ^= 0x40;
    LandmarkOracle recomputed(comm, g, oc, 0, &store);
    EXPECT_FALSE(recomputed.restored_from_store());
    EXPECT_GT(recomputed.precompute_waves(), 0u);
    EXPECT_EQ(recomputed.landmarks(), fresh.landmarks());

    // The recompute healed the store: the next restart adopts.
    ASSERT_TRUE(store.valid());
    LandmarkOracle healed(comm, g, oc, 0, &store);
    EXPECT_TRUE(healed.restored_from_store());

    // A different landmark request must not adopt slices computed for
    // another config.
    OracleConfig other;
    other.num_landmarks = 4;
    LandmarkOracle reconfigured(comm, g, other, 0, &store);
    EXPECT_FALSE(reconfigured.restored_from_store());
    EXPECT_GT(reconfigured.precompute_waves(), 0u);
  });
}

/// Both persisted blobs keep the layout docs/serving.md gives: the
/// format-version word, the blob's header words, its payload, and a
/// trailing checksum over everything before it.
TEST(ServeOracle, PersistedBlobsKeepTheirDocumentedLayout) {
  const auto list = graph::path_graph(24, 7);
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    ServeConfig config;
    config.batch_size = 1;
    config.oracle.num_landmarks = 2;
    config.graph_version = 5;
    serve::OracleSliceStore store;
    serve::FaultContext ctx;
    ctx.oracle_store = &store;
    DistanceService service(comm, g, config, &ctx);
    ASSERT_NE(service.oracle(), nullptr);
    const auto& landmarks = service.oracle()->landmarks();

    // A pruned wave banks one exact point, then the cache is persisted.
    graph::VertexId root = 0;
    while (std::find(landmarks.begin(), landmarks.end(), root) !=
           landmarks.end()) {
      ++root;
    }
    Query q;
    q.root = root;
    q.target = (root + 11) % g.num_vertices;
    ASSERT_TRUE(service.submit(q));
    const auto answers = service.tick(0);
    ASSERT_EQ(answers.size(), 1u);
    ASSERT_TRUE(answers[0].pruned_wave);
    service.persist_point_cache(store);

    const auto word = [](const std::vector<std::uint8_t>& b, std::size_t i) {
      std::uint64_t w = 0;
      std::memcpy(&w, b.data() + i * sizeof(w), sizeof(w));
      return w;
    };
    const auto sealed = [](const std::vector<std::uint8_t>& b) {
      std::uint64_t sum = 0;
      std::memcpy(&sum, b.data() + b.size() - sizeof(sum), sizeof(sum));
      return sum == util::hash_bytes(b.data(), b.size() - sizeof(sum));
    };
    constexpr std::size_t kWord = sizeof(std::uint64_t);

    // Slices: version, identity digest, K, local n, the K landmark ids,
    // then K x n float distances, landmark by landmark.
    const auto& slices = store.blob;
    const std::size_t K = landmarks.size();
    const std::size_t n = g.csr.num_local();
    ASSERT_EQ(slices.size(),
              (4 + K) * kWord + K * n * sizeof(graph::Weight) + kWord);
    EXPECT_EQ(word(slices, 0), serve::OracleSliceStore::kFormatVersion);
    EXPECT_EQ(word(slices, 2), K);
    EXPECT_EQ(word(slices, 3), n);
    for (std::size_t k = 0; k < K; ++k) {
      EXPECT_EQ(word(slices, 4 + k), landmarks[k]);
      const auto wave = core::delta_stepping_multi(comm, g, {landmarks[k]});
      EXPECT_EQ(std::memcmp(slices.data() + (4 + K) * kWord +
                                k * n * sizeof(graph::Weight),
                            wave.dist.data(), n * sizeof(graph::Weight)),
                0)
          << "landmark " << k;
    }
    EXPECT_TRUE(sealed(slices));

    // Points: version, a digest of (version, vertex count, graph
    // version), the entry count, then (root, target, distance bits) words.
    const auto& points = store.point_blob;
    ASSERT_EQ(points.size(), (4 + 3) * kWord);
    EXPECT_EQ(word(points, 0), serve::OracleSliceStore::kFormatVersion);
    EXPECT_EQ(word(points, 1),
              util::hash64(serve::OracleSliceStore::kFormatVersion,
                           g.num_vertices, config.graph_version));
    EXPECT_EQ(word(points, 2), 1u);
    EXPECT_EQ(word(points, 3), q.root);
    EXPECT_EQ(word(points, 4), q.target);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &answers[0].distance, sizeof(graph::Weight));
    EXPECT_EQ(word(points, 5), bits);
    EXPECT_TRUE(sealed(points));
  });
}

/// The oracle constructor rejects nonsense configurations.
TEST(ServeOracle, ValidatesConfig) {
  const auto list = graph::path_graph(8, 2);
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const auto g = build_test_graph(comm, list);
    OracleConfig bad;
    bad.num_landmarks = 0;
    EXPECT_THROW(LandmarkOracle(comm, g, bad, 0), std::invalid_argument);
  });
}

}  // namespace
