// Tests for the out-of-core pipelined build (src/ooc): the sharded result
// must be bit-identical to the in-memory builder's graph, spills must
// merge back losslessly, and the resident budget must be a hard cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/delta_stepping.hpp"
#include "core/graph_view.hpp"
#include "core/runner.hpp"
#include "graph/builder.hpp"
#include "graph/kronecker.hpp"
#include "graph/shard.hpp"
#include "ooc/pipeline.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

namespace fs = std::filesystem;

template <typename SpanA, typename SpanB>
bool bytes_equal(SpanA a, SpanB b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Everything the engines read must match byte for byte.
void expect_identical(const DistGraph& mem, const DistGraph& mapped) {
  EXPECT_TRUE(bytes_equal(mem.csr.offsets(), mapped.csr.offsets()));
  EXPECT_TRUE(bytes_equal(mem.csr.adjacency(), mapped.csr.adjacency()));
  EXPECT_TRUE(bytes_equal(mem.csr.weights(), mapped.csr.weights()));
  EXPECT_EQ(mem.hubs, mapped.hubs);
  EXPECT_EQ(mem.hub_degrees, mapped.hub_degrees);
  EXPECT_EQ(mem.num_input_edges, mapped.num_input_edges);
  EXPECT_EQ(mem.num_directed_edges, mapped.num_directed_edges);
}

TEST(OocPipeline, MatchesInMemoryBuildAcrossRankCounts) {
  KroneckerParams params;
  params.scale = 7;
  for (const int ranks : {1, 3, 4}) {
    const std::string dir =
        ::testing::TempDir() + "/g500_ooc_identity_" + std::to_string(ranks);
    fs::remove_all(dir);
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph mem = build_kronecker(comm, params);
      const auto stats =
          ooc::build_sharded_kronecker(comm, params, dir);
      const DistGraph mapped = graph::load_sharded(comm, dir);

      expect_identical(mem, mapped);
      EXPECT_EQ(mapped.backing, GraphBacking::kMapped);
      EXPECT_GT(mapped.mapped_bytes, 0u);
      EXPECT_EQ(core::graph_residency(mapped).resident_bytes, 0u);

      // Distances must agree bit for bit, not approximately.
      const auto roots = core::sample_roots(comm, mem, 2, 0x0c);
      for (const auto root : roots) {
        const auto a = core::delta_stepping(comm, mem, root);
        const auto b = core::delta_stepping(comm, mapped, root);
        ASSERT_EQ(a.dist.size(), b.dist.size());
        EXPECT_EQ(std::memcmp(a.dist.data(), b.dist.data(),
                              a.dist.size() * sizeof(Weight)),
                  0)
            << "distances diverge on rank " << comm.rank() << " at "
            << ranks << " ranks";
      }

      // Stage accounting sanity (stats are already allreduced): bin saw at
      // least every surviving directed edge, the shard holds bytes, and
      // the pipeline never exceeded its own budget.
      EXPECT_GE(stats.bin.edges, mem.num_directed_edges);
      EXPECT_GT(stats.shard_bytes, 0u);
      EXPECT_LE(stats.peak_resident_bytes, stats.budget_bytes);
      comm.barrier();
    });
    fs::remove_all(dir);
  }
}

TEST(OocPipeline, MultiRunSpillsMergeLosslessly) {
  // A budget small enough to force many runs per rank: the k-way merge and
  // cross-run dedup must still reproduce the in-memory build exactly.
  KroneckerParams params;
  params.scale = 10;
  const std::string dir = ::testing::TempDir() + "/g500_ooc_spill";
  fs::remove_all(dir);
  const int ranks = 2;
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    ooc::PipelineOptions opts;
    opts.resident_budget_bytes = 640u << 10;
    opts.chunk_edges = 512;
    const auto stats =
        ooc::build_sharded_kronecker(comm, params, dir, opts);
    const DistGraph mem = build_kronecker(comm, params);
    const DistGraph mapped = graph::load_sharded(comm, dir);
    expect_identical(mem, mapped);
    // More than one spilled run per rank, so the k-way merge actually had
    // to merge and dedup across runs; the cap still held throughout.
    EXPECT_GE(stats.runs_spilled, static_cast<std::uint64_t>(2 * ranks));
    EXPECT_LE(stats.peak_resident_bytes, opts.resident_budget_bytes);
    comm.barrier();
  });
  fs::remove_all(dir);
}

TEST(OocPipeline, OneRunWithRowsThatOutgrowTheSeenSet) {
  // One rank's run buffer takes all ~2 directed edges per tuple, so the
  // pack merges k = 1 runs and the sort thread's seen set meets each row
  // whole.  The largest row holds more distinct destinations than the seen
  // set's starting table takes, so both sets grow.
  KroneckerParams params;
  params.scale = 14;
  const std::string dir = ::testing::TempDir() + "/g500_ooc_one_run";
  fs::remove_all(dir);
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const auto stats = ooc::build_sharded_kronecker(comm, params, dir);
    const DistGraph mem = build_kronecker(comm, params);
    const DistGraph mapped = graph::load_sharded(comm, dir);
    expect_identical(mem, mapped);
    EXPECT_EQ(stats.runs_spilled, 1u);
    std::uint64_t largest = 0;
    for (LocalId u = 0; u < mem.csr.num_local(); ++u) {
      largest = std::max(largest, mem.csr.degree(u));
    }
    EXPECT_GT(largest, SeenSet::kInitialSlots / 2);
  });
  fs::remove_all(dir);
}

TEST(OocPipeline, RankWithoutEdgesMergesNoRuns) {
  // Three ranks over two vertices: rank 2 owns none, receives no edge and
  // spills no run, so its pack merges k = 0 runs into an empty shard.
  KroneckerParams params;
  params.scale = 1;
  const std::string dir = ::testing::TempDir() + "/g500_ooc_no_runs";
  fs::remove_all(dir);
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const auto stats = ooc::build_sharded_kronecker(comm, params, dir);
    const DistGraph mem = build_kronecker(comm, params);
    const DistGraph mapped = graph::load_sharded(comm, dir);
    expect_identical(mem, mapped);
    EXPECT_LT(stats.runs_spilled, 3u);
    if (comm.rank() == 2) {
      EXPECT_EQ(mapped.csr.num_edges(), 0u);
    }
    comm.barrier();
  });
  fs::remove_all(dir);
}

TEST(OocPipeline, PeakResidentBytesIsDeterministic) {
  // The bin stage charges its two run buffers once, so the high-water mark
  // cannot depend on whether the sort thread finished the previous run
  // before the next spill.
  KroneckerParams params;
  params.scale = 11;
  const std::string dir = ::testing::TempDir() + "/g500_ooc_peak";
  simmpi::World world(2);
  std::vector<std::uint64_t> peaks;
  for (int build = 0; build < 3; ++build) {
    fs::remove_all(dir);
    world.run([&](simmpi::Comm& comm) {
      ooc::PipelineOptions opts;
      opts.resident_budget_bytes = 640u << 10;
      opts.chunk_edges = 512;
      const auto stats = ooc::build_sharded_kronecker(comm, params, dir, opts);
      EXPECT_GE(stats.runs_spilled, 8u);
      if (comm.rank() == 0) peaks.push_back(stats.peak_resident_bytes);
    });
  }
  fs::remove_all(dir);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[1], peaks[0]);
  EXPECT_EQ(peaks[2], peaks[0]);
}

TEST(OocPipeline, FailedSpillEndsTheBuildWithItsError) {
  // Directories sit at rank 0's run-file names from run 1 on, so every
  // spill after the first fails in the sort thread.  The build must end
  // with that error, not wait for a run buffer the failed job holds.
  KroneckerParams params;
  params.scale = 11;
  const std::string dir = ::testing::TempDir() + "/g500_ooc_spill_fails";
  fs::remove_all(dir);
  for (int k = 1; k < 64; ++k) {
    fs::create_directories(dir + "/ooc_r0_run_" + std::to_string(k) + ".tmp");
  }
  simmpi::World world(2);
  try {
    world.run([&](simmpi::Comm& comm) {
      ooc::PipelineOptions opts;
      opts.resident_budget_bytes = 640u << 10;
      opts.chunk_edges = 512;
      (void)ooc::build_sharded_kronecker(comm, params, dir, opts);
    });
    ADD_FAILURE() << "the build did not report the failed spill";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot create temporary"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(OocPipeline, ResidentBudgetIsAHardCap) {
  KroneckerParams params;
  params.scale = 8;
  const std::string dir = ::testing::TempDir() + "/g500_ooc_budget";
  fs::remove_all(dir);
  ooc::PipelineOptions opts;
  opts.resident_budget_bytes = 32u << 10;  // below even one run buffer
  simmpi::World world(1);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
    (void)ooc::build_sharded_kronecker(comm, params, dir, opts);
  }),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(OocPipeline, LoadRejectsMismatchedRankCount) {
  KroneckerParams params;
  params.scale = 6;
  const std::string dir = ::testing::TempDir() + "/g500_ooc_ranks";
  fs::remove_all(dir);
  {
    simmpi::World world(2);
    world.run([&](simmpi::Comm& comm) {
      (void)ooc::build_sharded_kronecker(comm, params, dir);
    });
  }
  // A 1-rank world cannot load a 2-rank shard set.
  simmpi::World world(1);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
    (void)graph::load_sharded(comm, dir);
  }),
               std::runtime_error);
  fs::remove_all(dir);
}

}  // namespace
