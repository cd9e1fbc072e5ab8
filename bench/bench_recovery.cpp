// R1 — Checkpoint overhead and crash-recovery drill.
//
// Two questions a resilient record run must answer before committing to a
// checkpoint interval: (1) what fraction of the solve time do bucket-epoch
// snapshots cost, and (2) how much work does a mid-run rank crash waste
// when the sweep restarts from the last snapshot instead of from scratch.
// Part one sweeps the interval; part two plants an injected crash two
// thirds into the sweep and re-runs from the surviving snapshots, checking
// the recovered distances bit-for-bit against an undisturbed run.
#include <iostream>

#include "bench_util.hpp"
#include "core/checkpoint.hpp"
#include "simmpi/fault.hpp"
#include "util/backoff.hpp"
#include "util/options.hpp"

namespace {

using namespace g500;

struct CkptMeasurement {
  double seconds = 0.0;            // wall time per SSSP, max over ranks
  core::SsspStats stats;           // aggregated (global_stats)
};

CkptMeasurement measure_checkpointed(const graph::KroneckerParams& params,
                                     int ranks, const core::SsspConfig& config,
                                     std::uint64_t interval, int roots_count) {
  simmpi::World world(ranks);
  CkptMeasurement m;
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_kronecker(comm, params);
    const auto roots =
        core::sample_roots(comm, g, roots_count, core::kRootSeed);
    double seconds = 0.0;
    core::SsspStats merged;
    for (const auto root : roots) {
      core::CheckpointState ckpt;
      core::RunControl control;
      control.checkpoint = &ckpt;
      control.checkpoint_interval = interval;
      core::SsspStats local;
      comm.barrier();
      util::Timer timer;
      (void)core::delta_stepping(comm, g, root, config, &local, control);
      comm.barrier();
      seconds += comm.allreduce_max(timer.seconds());
      merged.merge(local);
    }
    const auto total = core::global_stats(comm, merged);
    if (comm.rank() == 0) {
      m.seconds = seconds / static_cast<double>(roots.size());
      m.stats = total;
    }
    comm.barrier();
  });
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g500;
  using graph::VertexId;
  using graph::Weight;
  const util::Options options(argc, argv);
  const int scale = static_cast<int>(options.get_int("scale", 13));
  const int ranks = static_cast<int>(options.get_int("ranks", 8));
  const int roots = static_cast<int>(options.get_int("roots", 4));
  const double delta = options.get_double("delta", 0.02);

  graph::KroneckerParams params;
  params.scale = scale;

  core::SsspConfig base;
  base.delta = delta;  // narrow buckets: many epochs, so intervals matter

  // ---- Part 1: checkpoint overhead as a function of the interval -------
  bench::RunReport report("recovery", options);
  const std::uint64_t intervals[] = {0, 1, 2, 4, 8, 16};
  util::Table table({"interval", "seconds", "checkpoints", "ckpt seconds",
                     "overhead", "slowdown"});
  double baseline_seconds = 0.0;
  for (const auto interval : intervals) {
    const auto m = measure_checkpointed(params, ranks, base, interval, roots);
    if (interval == 0) baseline_seconds = m.seconds;
    const double per_root_ckpt_seconds =
        m.stats.checkpoint_seconds / static_cast<double>(roots);
    table.row()
        .add(interval == 0 ? std::string("off")
                           : std::to_string(interval))
        .add(m.seconds, 4)
        .add(m.stats.checkpoints / static_cast<std::uint64_t>(roots))
        .add(per_root_ckpt_seconds, 4)
        .add(m.seconds > 0.0 ? per_root_ckpt_seconds / m.seconds : 0.0, 4)
        .add(baseline_seconds > 0.0 ? m.seconds / baseline_seconds : 0.0, 3);
    util::Json c = util::Json::object();
    c["scale"] = scale;
    c["ranks"] = ranks;
    c["checkpoint_interval"] = interval;
    c["seconds"] = m.seconds;
    c["checkpoint_seconds_per_root"] = per_root_ckpt_seconds;
    c["overhead"] =
        m.seconds > 0.0 ? per_root_ckpt_seconds / m.seconds : 0.0;
    c["slowdown"] =
        baseline_seconds > 0.0 ? m.seconds / baseline_seconds : 0.0;
    c["sssp_stats"] = core::to_json(m.stats);
    report.add_case(std::move(c));
  }
  table.print(std::cout,
              "R1a: checkpoint overhead per SSSP, scale " +
                  std::to_string(scale) + ", " + std::to_string(ranks) +
                  " ranks, delta " + std::to_string(delta));
  std::cout << "\n'overhead' is checkpoint_seconds / run seconds; 'slowdown' "
               "is wall time versus\ncheckpointing off.  Sparse intervals "
               "amortize the snapshot cost toward zero.\n\n";

  // ---- Part 2: crash-recovery drill ------------------------------------
  constexpr std::uint64_t kDrillInterval = 4;

  // Clean reference run (also provides the bit-identity baseline).
  std::vector<Weight> reference;
  double clean_seconds = 0.0;
  VertexId root = 0;
  {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const auto g = graph::build_kronecker(comm, params);
      const auto sampled = core::sample_roots(comm, g, 1, core::kRootSeed);
      if (sampled.empty()) throw std::runtime_error("no eligible roots");
      comm.barrier();
      util::Timer timer;
      const auto result = core::delta_stepping(comm, g, sampled[0], base);
      const double t = comm.allreduce_max(timer.seconds());
      const auto whole = core::gather_result(comm, g, result);
      if (comm.rank() == 0) {
        root = sampled[0];
        reference = whole.dist;
        clean_seconds = t;
      }
    });
  }

  // Probe the victim's collective count so the crash lands two thirds
  // into the sweep (the probe builds the graph twice; a real attempt
  // builds once, so its sweep spans [build, build + sweep)).
  const int victim = ranks > 1 ? 1 : 0;
  std::uint64_t build_calls = 0;
  std::uint64_t total_calls = 0;
  {
    simmpi::World probe(ranks);
    probe.set_fault_plan(simmpi::FaultPlan{});
    probe.run([&](simmpi::Comm& comm) {
      (void)graph::build_kronecker(comm, params);
      (void)comm.allreduce_sum(1);  // stand-in for the root sample
    });
    build_calls = probe.injector()->collective_calls(victim);
    probe.run([&](simmpi::Comm& comm) {
      const auto g = graph::build_kronecker(comm, params);
      (void)core::sample_roots(comm, g, 1, core::kRootSeed);
      core::CheckpointState ckpt;
      core::RunControl control;
      control.checkpoint = &ckpt;
      control.checkpoint_interval = kDrillInterval;
      (void)core::delta_stepping(comm, g, root, base, nullptr, control);
    });
    total_calls = probe.injector()->collective_calls(victim);
  }
  const std::uint64_t sweep_calls = total_calls - 2 * build_calls;
  const std::uint64_t crash_at = build_calls + sweep_calls * 2 / 3;

  simmpi::World world(ranks);
  const simmpi::FaultPlan plan = simmpi::FaultPlan{}.crash(victim, crash_at);
  world.set_fault_plan(plan);
  std::vector<core::CheckpointState> snapshots(
      static_cast<std::size_t>(ranks));

  double wasted_seconds = 0.0;
  double recovery_seconds = 0.0;
  core::SsspStats recovery_stats;
  std::vector<Weight> recovered;
  bool crashed = false;

  const auto attempt = [&](std::vector<Weight>* out,
                           core::SsspStats* out_stats, double* out_seconds) {
    world.run([&](simmpi::Comm& comm) {
      const auto g = graph::build_kronecker(comm, params);
      (void)core::sample_roots(comm, g, 1, core::kRootSeed);
      core::RunControl control;
      control.checkpoint = &snapshots[static_cast<std::size_t>(comm.rank())];
      control.checkpoint_interval = kDrillInterval;
      core::SsspStats local;
      comm.barrier();
      util::Timer timer;
      const auto result =
          core::delta_stepping(comm, g, root, base, &local, control);
      const double t = comm.allreduce_max(timer.seconds());
      const auto whole = core::gather_result(comm, g, result);
      if (comm.rank() == 0) {
        if (out != nullptr) *out = whole.dist;
        if (out_stats != nullptr) *out_stats = local;
        if (out_seconds != nullptr) *out_seconds = t;
      }
    });
  };

  // Retries are paced by the shared backoff policy (util/backoff.hpp) so
  // the drill charges the same simulated pause the resilient drivers do.
  util::BackoffPolicy backoff;
  backoff.base_seconds = 0.05;
  backoff.seed = 0x9500;
  double backoff_seconds = 0.0;

  util::Timer failed_attempt;
  try {
    attempt(nullptr, nullptr, nullptr);
  } catch (const simmpi::InjectedCrashError&) {
    crashed = true;
    wasted_seconds = failed_attempt.seconds();
  }
  if (crashed) {
    backoff_seconds = backoff.delay(1);
    attempt(&recovered, &recovery_stats, &recovery_seconds);
  }

  util::Table drill_table({"quantity", "value"});
  drill_table.row().add("root").add(static_cast<std::uint64_t>(root));
  drill_table.row().add("crash at collective").add(crash_at);
  drill_table.row().add("crash fired").add(crashed ? "yes" : "NO");
  drill_table.row().add("clean run seconds").add(clean_seconds, 4);
  drill_table.row().add("wasted attempt seconds").add(wasted_seconds, 4);
  drill_table.row().add("backoff seconds (virtual)").add(backoff_seconds, 4);
  drill_table.row().add("recovery run seconds").add(recovery_seconds, 4);
  drill_table.row().add("restores").add(recovery_stats.restores);
  drill_table.row()
      .add("buckets after restore")
      .add(recovery_stats.buckets_processed);
  drill_table.row()
      .add("bit-identical distances")
      .add(!recovered.empty() && recovered == reference ? "yes" : "NO");
  drill_table.print(std::cout, "R1b: crash-recovery drill, interval " +
                                   std::to_string(kDrillInterval));
  std::cout << "\nExpected shape: the recovery run restores from the last "
               "snapshot and re-drains only\nthe tail of the bucket "
               "schedule, so it runs faster than the clean sweep while\n"
               "producing bit-identical distances.\n";

  util::Json drill_json = util::Json::object();
  drill_json["root"] = static_cast<std::uint64_t>(root);
  drill_json["fault_plan"] = simmpi::to_json(plan);
  drill_json["crash_fired"] = crashed;
  drill_json["clean_seconds"] = clean_seconds;
  drill_json["wasted_seconds"] = wasted_seconds;
  drill_json["backoff_seconds"] = backoff_seconds;
  drill_json["recovery_seconds"] = recovery_seconds;
  drill_json["restores"] = recovery_stats.restores;
  drill_json["buckets_after_restore"] = recovery_stats.buckets_processed;
  drill_json["bit_identical"] = !recovered.empty() && recovered == reference;
  report.doc()["drill"] = std::move(drill_json);
  bench::write_report(report, table);
  return (!crashed || recovered != reference) ? 1 : 0;
}
