// Checkpoint/restart tests: snapshot integrity, bit-identical resumed
// results, end-to-end crash recovery, and the resilient benchmark driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/delta_stepping.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

KroneckerParams small_graph() {
  KroneckerParams params;
  params.scale = 9;
  params.edgefactor = 8;
  return params;
}

/// A run that snapshots into `slot` every `interval` bucket epochs and
/// resumes from a usable snapshot found there.
core::RunControl checkpointed(core::CheckpointState* slot,
                              std::uint64_t interval) {
  core::RunControl control;
  control.checkpoint = slot;
  control.checkpoint_interval = interval;
  return control;
}

/// Auto-delta drains this small graph in a couple of buckets; narrow the
/// buckets so the sweep spans many checkpoint epochs worth crashing into.
core::SsspConfig long_sweep_config() {
  core::SsspConfig config;
  config.delta = 0.01;
  return config;
}

// Vertices with a real neighborhood in the scale-9 instance (vertex 1 is
// near-isolated and drains in a single bucket).  From these, delta = 0.01
// yields ~90 bucket epochs — room to crash mid-sweep.
constexpr VertexId kConnectedRoot = 8;
constexpr VertexId kOtherConnectedRoot = 199;

/// Reference distances from an undisturbed run, gathered globally.
std::vector<Weight> clean_distances(const KroneckerParams& params,
                                    VertexId root, int num_ranks,
                                    const core::SsspConfig& config) {
  simmpi::World world(num_ranks);
  std::vector<Weight> dist;
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const auto result = core::delta_stepping(comm, g, root, config);
    const auto whole = core::gather_result(comm, g, result);
    if (comm.rank() == 0) dist = whole.dist;
  });
  return dist;
}

TEST(Checkpoint, SealVerifyAndBitRotDetection) {
  core::CheckpointState state;
  state.roots_digest = 77;
  state.last_bucket = 4;
  state.buckets_done = 5;
  state.dist = {0.0f, 1.5f, 2.25f};
  state.parent = {0, 0, 1};
  state.seal();
  EXPECT_TRUE(state.valid);
  EXPECT_TRUE(state.checksum_ok());
  EXPECT_NO_THROW(state.verify());

  state.dist[1] = 1.25f;  // bit rot in "stable storage"
  EXPECT_FALSE(state.checksum_ok());
  EXPECT_THROW(state.verify(), core::CheckpointError);

  state.clear();
  EXPECT_FALSE(state.valid);
  EXPECT_NO_THROW(state.verify());  // invalid snapshots are simply unusable
}

TEST(Checkpoint, CheckpointedRunMatchesPlainBitForBit) {
  const auto params = small_graph();
  const auto config = long_sweep_config();
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const auto plain = core::delta_stepping(comm, g, kConnectedRoot, config);

    core::CheckpointState ckpt;
    core::SsspStats stats;
    const auto resumable = core::delta_stepping(
        comm, g, kConnectedRoot, config, &stats, checkpointed(&ckpt, 1));
    EXPECT_EQ(resumable.dist, plain.dist);
    EXPECT_EQ(resumable.parent, plain.parent);
    EXPECT_GT(stats.checkpoints, 0u);
    EXPECT_EQ(stats.restores, 0u);
    EXPECT_GE(stats.checkpoint_seconds, 0.0);
    // A completed run leaves no snapshot behind.
    EXPECT_FALSE(ckpt.valid);
  });
}

TEST(Checkpoint, LastBucketIsNeverSealed) {
  // A snapshot is sealed only while the run goes on: a run that ends (or
  // stops at its deadline) clears the slot, so the bucket it processed
  // last is never copied.  Root 1 drains in one bucket, so at interval 1
  // its run seals nothing; the connected root seals one snapshot per
  // bucket but its last.
  const auto params = small_graph();
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::CheckpointState ckpt;
    core::SsspStats one_bucket;
    (void)core::delta_stepping(comm, g, 1, {}, &one_bucket,
                               checkpointed(&ckpt, 1));
    EXPECT_EQ(one_bucket.buckets_processed, 1u);
    EXPECT_EQ(one_bucket.checkpoints, 0u);
    core::SsspStats many;
    (void)core::delta_stepping(comm, g, kConnectedRoot, long_sweep_config(),
                               &many, checkpointed(&ckpt, 1));
    EXPECT_GT(many.buckets_processed, 1u);
    EXPECT_EQ(many.checkpoints, many.buckets_processed - 1);
    EXPECT_FALSE(ckpt.valid);
  });
}

TEST(Checkpoint, RestoreRefusesSnapshotFromDifferentRun) {
  const auto params = small_graph();
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    // Snapshot of one root's run, kept alive by killing the run via
    // max_buckets before it completes.
    core::CheckpointState ckpt;
    auto config = long_sweep_config();
    config.max_buckets = 2;
    core::SsspStats stats;
    EXPECT_THROW((void)core::delta_stepping(comm, g, kConnectedRoot, config,
                                            &stats, checkpointed(&ckpt, 1)),
                 std::runtime_error);
    ASSERT_TRUE(ckpt.valid);

    // A different root must ignore it and still be correct.
    core::SsspStats other_stats;
    const auto result =
        core::delta_stepping(comm, g, kOtherConnectedRoot, {}, &other_stats,
                             checkpointed(&ckpt, 0));
    EXPECT_EQ(other_stats.restores, 0u);
    const auto verdict =
        core::validate_sssp(comm, g, kOtherConnectedRoot, result);
    EXPECT_TRUE(verdict.ok);
  });
}

TEST(Checkpoint, EndToEndCrashRecoveryIsBitIdentical) {
  // The acceptance drill: kill a rank mid-run with an injected fault,
  // restart from the checkpoints, and demand the recovered distances be
  // bit-identical to an undisturbed run.
  const auto params = small_graph();
  const VertexId root = kConnectedRoot;
  const int P = 4;
  const int victim = 2;
  const auto config = long_sweep_config();
  const auto reference = clean_distances(params, root, P, config);
  ASSERT_FALSE(reference.empty());

  // Probe with an empty plan to learn the victim's collective counts:
  // B for graph construction alone, T for construction plus the sweep.
  std::uint64_t build_calls = 0;
  std::uint64_t total_calls = 0;
  {
    simmpi::World probe(P);
    probe.set_fault_plan(simmpi::FaultPlan{});
    probe.run([&](simmpi::Comm& comm) { (void)build_kronecker(comm, params); });
    build_calls = probe.injector()->collective_calls(victim);
    probe.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      core::CheckpointState ckpt;
      (void)core::delta_stepping(comm, g, root, config, nullptr,
                                 checkpointed(&ckpt, 2));
    });
    total_calls = probe.injector()->collective_calls(victim);
  }
  ASSERT_GT(total_calls, 2 * build_calls + 16)
      << "graph too small to crash mid-sweep meaningfully";

  // The probe counted construction twice (once per run); the real attempt
  // builds once, so its sweep spans [B, B + S).  Crash two thirds in.
  const std::uint64_t sweep_calls = total_calls - 2 * build_calls;
  const std::uint64_t crash_at = build_calls + sweep_calls * 2 / 3;

  simmpi::World world(P);
  world.set_fault_plan(simmpi::FaultPlan{}.crash(victim, crash_at));
  std::vector<core::CheckpointState> snapshots(P);

  auto attempt = [&](std::vector<Weight>* out_dist,
                     core::SsspStats* out_stats) {
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      core::SsspStats stats;
      const auto result = core::delta_stepping(
          comm, g, root, config, &stats,
          checkpointed(&snapshots[static_cast<std::size_t>(comm.rank())], 2));
      const auto verdict = core::validate_sssp(comm, g, root, result);
      EXPECT_TRUE(verdict.ok);
      const auto whole = core::gather_result(comm, g, result);
      if (comm.rank() == 0) {
        if (out_dist != nullptr) *out_dist = whole.dist;
        if (out_stats != nullptr) *out_stats = stats;
      }
    });
  };

  EXPECT_THROW(attempt(nullptr, nullptr), simmpi::InjectedCrashError);
  // The crash interrupted the sweep after at least one snapshot epoch.
  ASSERT_TRUE(snapshots[0].valid)
      << "crash fired before the first checkpoint — graph/interval too small";

  std::vector<Weight> recovered;
  core::SsspStats stats;
  attempt(&recovered, &stats);  // consumed fault does not refire
  EXPECT_GE(stats.restores, 1u);
  EXPECT_EQ(recovered, reference);  // bit-identical, not just equivalent
}

TEST(ResilientRunner, RecoversFromMidBenchmarkCrash) {
  const auto params = small_graph();
  const int P = 4;
  core::RunnerOptions options;
  options.num_roots = 2;
  options.max_attempts = 3;
  options.retry_backoff.base_seconds = 0.5;
  options.checkpoint_interval = 2;

  const auto build = [&](simmpi::Comm& comm) {
    return build_kronecker(comm, params);
  };

  // Probe a fault-free resilient run for the total collective count, then
  // replay with a crash planted past the setup phase.
  std::uint64_t setup_calls = 0;
  std::uint64_t total_calls = 0;
  {
    simmpi::World probe(P);
    probe.set_fault_plan(simmpi::FaultPlan{});
    probe.run([&](simmpi::Comm& comm) {
      const DistGraph g = build(comm);
      (void)core::sample_roots(comm, g, options.num_roots, core::kRootSeed);
    });
    setup_calls = probe.injector()->collective_calls(0);
    const auto clean = core::run_benchmark_resilient(probe, build, options);
    ASSERT_TRUE(clean.all_valid);
    ASSERT_EQ(clean.runs.size(), 2u);
    total_calls = probe.injector()->collective_calls(0);
  }
  // Probe counted build+sample three times (the explicit run, the driver's
  // phase A, and its phase B); the crashing driver reaches the root sweep
  // after two (phase A, then phase B's own build).  Crash halfway through.
  ASSERT_GT(total_calls, 3 * setup_calls + 8);
  const std::uint64_t sweep_calls = total_calls - 3 * setup_calls;
  const std::uint64_t crash_at = 2 * setup_calls + sweep_calls / 2;

  simmpi::World world(P);
  world.set_fault_plan(simmpi::FaultPlan{}.crash(1, crash_at));
  const auto report = core::run_benchmark_resilient(world, build, options);

  EXPECT_TRUE(report.all_valid);
  EXPECT_EQ(report.failed_roots, 0);
  ASSERT_EQ(report.runs.size(), 2u);
  int total_attempts = 0;
  for (const auto& run : report.runs) {
    EXPECT_TRUE(run.valid);
    total_attempts += run.attempts;
  }
  EXPECT_GT(total_attempts, 2);  // the crash cost at least one retry
  EXPECT_GT(report.backoff_seconds, 0.0);
  EXPECT_EQ(world.injector()->events_fired(), 1u);
}

TEST(ResilientRunner, ExhaustedRootDegradesToInvalidEntry) {
  const auto params = small_graph();
  const int P = 2;
  core::RunnerOptions options;
  options.num_roots = 2;
  options.max_attempts = 1;  // no second chances
  options.checkpoint_interval = 2;

  const auto build = [&](simmpi::Comm& comm) {
    return build_kronecker(comm, params);
  };

  std::uint64_t setup_calls = 0;
  std::uint64_t total_calls = 0;
  {
    simmpi::World probe(P);
    probe.set_fault_plan(simmpi::FaultPlan{});
    const auto clean = core::run_benchmark_resilient(probe, build, options);
    ASSERT_TRUE(clean.all_valid);
    total_calls = probe.injector()->collective_calls(0);
  }
  {
    simmpi::World probe(P);
    probe.set_fault_plan(simmpi::FaultPlan{});
    probe.run([&](simmpi::Comm& comm) {
      const DistGraph g = build(comm);
      (void)core::sample_roots(comm, g, options.num_roots, core::kRootSeed);
    });
    setup_calls = probe.injector()->collective_calls(0);
  }
  const std::uint64_t crash_at =
      2 * setup_calls + (total_calls - 2 * setup_calls) / 2;

  simmpi::World world(P);
  world.set_fault_plan(simmpi::FaultPlan{}.crash(0, crash_at));
  const auto report = core::run_benchmark_resilient(world, build, options);

  EXPECT_FALSE(report.all_valid);
  EXPECT_EQ(report.failed_roots, 1);
  ASSERT_EQ(report.runs.size(), 2u);
  int invalid = 0;
  for (const auto& run : report.runs) {
    if (!run.valid) {
      ++invalid;
      EXPECT_EQ(run.seconds, 0.0);
      EXPECT_EQ(run.teps, 0.0);
    }
  }
  EXPECT_EQ(invalid, 1);
}

TEST(ResilientRunner, CleanWorldMatchesStandardProtocol) {
  const auto params = small_graph();
  simmpi::World world(2);
  core::RunnerOptions options;
  options.num_roots = 3;
  const auto build = [&](simmpi::Comm& comm) {
    return build_kronecker(comm, params);
  };
  const auto resilient = core::run_benchmark_resilient(world, build, options);
  ASSERT_EQ(resilient.runs.size(), 3u);
  EXPECT_TRUE(resilient.all_valid);
  EXPECT_EQ(resilient.recovered_roots, 0);
  EXPECT_EQ(resilient.failed_roots, 0);
  for (const auto& run : resilient.runs) {
    EXPECT_EQ(run.attempts, 1);
    EXPECT_FALSE(run.recovered);
  }

  // Same roots as the in-world protocol on the same world shape.
  std::vector<VertexId> standard_roots;
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build(comm);
    const auto roots =
        core::sample_roots(comm, g, options.num_roots, core::kRootSeed);
    if (comm.rank() == 0) standard_roots = roots;
  });
  ASSERT_EQ(standard_roots.size(), 3u);
  for (std::size_t i = 0; i < standard_roots.size(); ++i) {
    EXPECT_EQ(resilient.runs[i].root, standard_roots[i]);
  }
}

// Bit rot in "stable storage" must surface as CheckpointError at restore
// time — resuming silently from damaged distances would poison the sweep.
TEST(Checkpoint, RestoreThrowsOnSnapshotBitRot) {
  const auto params = small_graph();
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::CheckpointState ckpt;
    auto truncated = long_sweep_config();
    truncated.max_buckets = 2;
    EXPECT_THROW((void)core::delta_stepping(comm, g, kConnectedRoot, truncated,
                                            nullptr, checkpointed(&ckpt, 1)),
                 std::runtime_error);
    ASSERT_TRUE(ckpt.valid);
    ASSERT_FALSE(ckpt.dist.empty());
    ckpt.dist[0] = -7.5f;  // rot one value; the checksum no longer matches
    EXPECT_THROW(
        (void)core::delta_stepping(comm, g, kConnectedRoot,
                                   long_sweep_config(), nullptr,
                                   checkpointed(&ckpt, 1)),
        core::CheckpointError);
  });
}

// A snapshot from the very first bucket epoch is already resumable; the
// recovered sweep must still be bit-identical to an undisturbed one.
TEST(Checkpoint, ResumeFromFirstEpochSnapshotIsBitIdentical) {
  const auto params = small_graph();
  const auto config = long_sweep_config();
  const auto reference = clean_distances(params, kConnectedRoot, 2, config);
  ASSERT_FALSE(reference.empty());
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::CheckpointState ckpt;
    auto first = config;
    first.max_buckets = 1;  // die right after the first epoch's snapshot
    EXPECT_THROW((void)core::delta_stepping(comm, g, kConnectedRoot, first,
                                            nullptr, checkpointed(&ckpt, 1)),
                 std::runtime_error);
    ASSERT_TRUE(ckpt.valid);
    EXPECT_EQ(ckpt.buckets_done, 1u);

    core::SsspStats stats;
    const auto result = core::delta_stepping(comm, g, kConnectedRoot, config,
                                             &stats, checkpointed(&ckpt, 1));
    EXPECT_GE(stats.restores, 1u);
    const auto whole = core::gather_result(comm, g, result);
    if (comm.rank() == 0) {
      EXPECT_EQ(whole.dist, reference);
    }
  });
}

// Injected stalls during the recovery attempt charge virtual delay but
// must not perturb the restored sweep.
TEST(Checkpoint, RestoreUnderInjectedStallIsBitIdentical) {
  const auto params = small_graph();
  const auto config = long_sweep_config();
  const auto reference = clean_distances(params, kConnectedRoot, 2, config);
  ASSERT_FALSE(reference.empty());
  simmpi::World world(2);
  world.set_fault_plan(simmpi::FaultPlan{}
                           .stall(1, 60, 2.0)
                           .stall(1, 200, 2.0)
                           .stall(0, 400, 2.0));
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::CheckpointState ckpt;
    auto truncated = config;
    truncated.max_buckets = 4;
    EXPECT_THROW((void)core::delta_stepping(comm, g, kConnectedRoot, truncated,
                                            nullptr, checkpointed(&ckpt, 2)),
                 std::runtime_error);
    ASSERT_TRUE(ckpt.valid);
    core::SsspStats stats;
    const auto result = core::delta_stepping(comm, g, kConnectedRoot, config,
                                             &stats, checkpointed(&ckpt, 2));
    EXPECT_GE(stats.restores, 1u);
    const auto whole = core::gather_result(comm, g, result);
    if (comm.rank() == 0) {
      EXPECT_EQ(whole.dist, reference);
    }
  });
  EXPECT_GT(world.aggregate_stats().stall_seconds, 0.0);
}

// The engine alone decides which per-run controls combine.  A pruned run's
// labels are exact only within its budget, so it must not leave a snapshot
// that a full run of the same root would resume from (the snapshot digest
// pins the roots, delta and graph shape, not the pruning bound).  Warm
// labels come from another run, so a warm start is neither pruned,
// truncated nor checkpointed.
TEST(Checkpoint, PrunedRunCannotCheckpoint) {
  const auto params = small_graph();
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const std::vector<Weight> lb(g.csr.num_local(), 0.0f);
    core::CheckpointState ckpt;
    for (const std::uint64_t interval : {0, 1}) {
      auto pruned = checkpointed(&ckpt, interval);
      pruned.prune_lb = &lb;
      pruned.prune_budget = 0.05f;
      EXPECT_THROW((void)core::delta_stepping(comm, g, kConnectedRoot,
                                              long_sweep_config(), nullptr,
                                              pruned),
                   std::invalid_argument);
      EXPECT_FALSE(ckpt.valid);
    }

    const auto full = core::delta_stepping(comm, g, kConnectedRoot);
    core::WarmStart warm;
    warm.dist = full.dist;
    warm.parent = full.parent;
    core::RunControl warm_pruned;
    warm_pruned.warm = &warm;
    warm_pruned.prune_lb = &lb;
    core::RunControl warm_deadline;
    warm_deadline.warm = &warm;
    warm_deadline.deadline_buckets = 1;
    auto warm_checkpointed = checkpointed(&ckpt, 1);
    warm_checkpointed.warm = &warm;
    for (const auto& control : {warm_pruned, warm_deadline,
                                warm_checkpointed}) {
      EXPECT_THROW((void)core::delta_stepping(comm, g, kConnectedRoot, {},
                                              nullptr, control),
                   std::invalid_argument);
    }

    // Each control alone runs, and a deadline may checkpoint.
    core::RunControl warm_only;
    warm_only.warm = &warm;
    EXPECT_EQ(
        core::delta_stepping(comm, g, kConnectedRoot, {}, nullptr, warm_only)
            .dist,
        full.dist);
    core::RunControl pruned_only;
    pruned_only.prune_lb = &lb;
    pruned_only.prune_budget = 0.05f;
    (void)core::delta_stepping(comm, g, kConnectedRoot, {}, nullptr,
                               pruned_only);
    auto deadline_checkpointed = checkpointed(&ckpt, 1);
    deadline_checkpointed.deadline_buckets = 2;
    core::SsspStats stats;
    (void)core::delta_stepping(comm, g, kConnectedRoot, long_sweep_config(),
                               &stats, deadline_checkpointed);
    EXPECT_EQ(stats.deadline_stops, 1u);
    // Only the first of the two buckets is sealed: the deadline stop
    // clears the slot instead of sealing the second.
    EXPECT_EQ(stats.checkpoints, 1u);
  });
}

TEST(ResilientRunner, RejectsNonDeltaSteppingAlgorithms) {
  simmpi::World world(2);
  core::RunnerOptions options;
  options.algorithm = core::Algorithm::kBfs;
  EXPECT_THROW((void)core::run_benchmark_resilient(
                   world,
                   [](simmpi::Comm& comm) {
                     return build_kronecker(comm, KroneckerParams{});
                   },
                   options),
               std::invalid_argument);
}

}  // namespace
