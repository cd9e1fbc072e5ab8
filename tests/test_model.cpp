// Tests for the machine model, calibration and extreme-scale projection.
#include <gtest/gtest.h>

#include "core/delta_stepping.hpp"
#include "core/runner.hpp"
#include "graph/builder.hpp"
#include "model/projection.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using model::Calibration;
using model::Machine;
using model::Projection;
using model::ProjectionPoint;

Calibration test_calibration() {
  Calibration cal;
  cal.relax_per_input_edge = 2.0;
  cal.wire_bytes_per_input_edge = 8.0;
  cal.rounds_per_sssp = 200.0;
  cal.calibration_scale = 16;
  return cal;
}

TEST(Machine, NewSunwayMatchesRecordConfiguration) {
  const Machine m = Machine::new_sunway();
  EXPECT_EQ(m.num_nodes, 107520);
  EXPECT_EQ(m.cores_per_node, 390);
  // The record headline: over 40 million cores.
  EXPECT_GT(m.total_cores(), 40'000'000);
  const auto topo = m.topology();
  EXPECT_EQ(topo.num_nodes(), m.num_nodes);
  EXPECT_EQ(topo.num_supernodes(), 107520 / 256);
}

TEST(Machine, FugakuLikeIsDistinctComparisonClass) {
  const Machine m = Machine::fugaku_like();
  EXPECT_GT(m.num_nodes, 150000);
  EXPECT_LT(m.cores_per_node, Machine::new_sunway().cores_per_node);
  EXPECT_GT(m.total_cores(), 7'000'000);
  // Both machine descriptions must produce working topologies.
  EXPECT_GT(m.topology().bisection_GBps(), 0.0);
}

TEST(Machine, ScaledToKeepsEverythingElse) {
  const Machine m = Machine::new_sunway().scaled_to(1024);
  EXPECT_EQ(m.num_nodes, 1024);
  EXPECT_EQ(m.cores_per_node, 390);
}

TEST(Machine, PartialSupernodeRoundsUp) {
  Machine m = Machine::new_sunway().scaled_to(300);
  const auto topo = m.topology();
  EXPECT_EQ(topo.num_supernodes(), 2);
}

TEST(Calibration, FromRunExtractsRatios) {
  core::SsspStats stats;
  stats.relax_generated = 2000;
  simmpi::CommStats comm;
  comm.alltoallv.bytes = 8000;
  comm.alltoallv.calls = 50;
  const Calibration cal = Calibration::from_run(stats, comm, 1000, 1, 12);
  EXPECT_DOUBLE_EQ(cal.relax_per_input_edge, 2.0);
  EXPECT_DOUBLE_EQ(cal.wire_bytes_per_input_edge, 8.0);
  EXPECT_DOUBLE_EQ(cal.rounds_per_sssp, 50.0);
  EXPECT_EQ(cal.calibration_scale, 12);
}

TEST(Calibration, FromRealMeasuredRun) {
  graph::KroneckerParams params;
  params.scale = 9;
  simmpi::World world(4);
  core::SsspStats total;
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_kronecker(comm, params);
    comm.barrier();
    // Measure only the SSSP traffic: stats were accumulating during build,
    // so snapshot via World::reset_stats is done outside; here just run.
    core::SsspStats local;  // per rank — stats are not thread-shareable
    (void)core::delta_stepping(comm, g, 1, core::SsspConfig{}, &local);
    const auto agg = core::global_stats(comm, local);
    if (comm.rank() == 0) total = agg;
  });
  const auto agg = world.aggregate_stats();
  const Calibration cal = Calibration::from_run(
      total, agg, params.num_edges(), 1, params.scale);
  EXPECT_GT(cal.wire_bytes_per_input_edge, 0.0);
  EXPECT_GT(cal.rounds_per_sssp, 0.0);
}

TEST(Calibration, RejectsEmptyRun) {
  EXPECT_THROW((void)Calibration::from_run({}, {}, 0, 1, 10),
               std::invalid_argument);
  EXPECT_THROW((void)Calibration::from_run({}, {}, 100, 0, 10),
               std::invalid_argument);
}

TEST(Projection, ComputeTermShrinksWithMoreNodes) {
  Projection proj(Machine::new_sunway(), test_calibration());
  const auto small = proj.predict(36, 1024);
  const auto large = proj.predict(36, 65536);
  EXPECT_GT(small.compute_seconds, large.compute_seconds);
}

TEST(Projection, LatencyTermGrowsWithMachine) {
  Projection proj(Machine::new_sunway(), test_calibration());
  EXPECT_LT(proj.predict(36, 1024).latency_seconds,
            proj.predict(36, 65536).latency_seconds);
}

TEST(Projection, RecordConfigurationIsFeasibleAndCommBound) {
  Projection proj(Machine::new_sunway(), test_calibration());
  // Scale 43 = 140.7 trillion edges on the full machine.
  const auto p = proj.predict(43, 107520);
  EXPECT_EQ(p.input_edges, std::uint64_t{16} << 43);
  EXPECT_GT(p.input_edges, 140'000'000'000'000ULL);
  EXPECT_GT(p.cores, 40'000'000);
  EXPECT_TRUE(p.memory_feasible);
  EXPECT_GT(p.gteps, 0.0);
  // The paper's point: at full scale the network, not compute, binds.
  EXPECT_GT(p.network_seconds + p.latency_seconds, p.compute_seconds);
}

TEST(Projection, MemoryInfeasibleWhenMachineTooSmall) {
  Projection proj(Machine::new_sunway(), test_calibration());
  EXPECT_FALSE(proj.predict(43, 64).memory_feasible);
}

TEST(Projection, WeakScalingGrowsThroughput) {
  Projection proj(Machine::new_sunway(), test_calibration());
  const auto points = proj.weak_scaling(36, 1024, 6);
  ASSERT_EQ(points.size(), 7u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].gteps, points[i - 1].gteps)
        << "weak scaling step " << i;
    EXPECT_EQ(points[i].nodes, points[i - 1].nodes * 2);
    EXPECT_EQ(points[i].scale, points[i - 1].scale + 1);
  }
}

TEST(Projection, StrongScalingSweepsNodeCounts) {
  Projection proj(Machine::new_sunway(), test_calibration());
  const auto points = proj.strong_scaling(38, {1024, 4096, 16384});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GT(points[0].total_seconds, points[2].total_seconds);
}

TEST(Projection, RejectsBadInputs) {
  Projection proj(Machine::new_sunway(), test_calibration());
  EXPECT_THROW((void)proj.predict(0, 1024), std::invalid_argument);
  EXPECT_THROW((void)proj.predict(60, 1024), std::invalid_argument);
  EXPECT_THROW((void)proj.predict(36, 0), std::invalid_argument);
  EXPECT_THROW((void)proj.predict(36, 8, 0), std::invalid_argument);
}

TEST(Projection, TotalIsSumOfTerms) {
  Projection proj(Machine::commodity_cluster(512), test_calibration());
  const auto p = proj.predict(34, 512, 1);
  EXPECT_NEAR(p.total_seconds,
              p.compute_seconds + p.network_seconds + p.latency_seconds,
              1e-12);
  EXPECT_NEAR(p.gteps,
              static_cast<double>(p.input_edges) / p.total_seconds / 1e9,
              p.gteps * 1e-9);
}

}  // namespace
