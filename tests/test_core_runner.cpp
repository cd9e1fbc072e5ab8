// Tests for the Graph 500 benchmark protocol runner.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "core/delta_stepping.hpp"
#include "core/runner.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

TEST(SampleRoots, RootsAreDistinctEligibleAndDeterministic) {
  KroneckerParams params;
  params.scale = 9;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const auto roots = core::sample_roots(comm, g, 16, 7);
    ASSERT_EQ(roots.size(), 16u);
    std::set<VertexId> unique(roots.begin(), roots.end());
    EXPECT_EQ(unique.size(), 16u);
    // Re-sampling with the same seed reproduces; another seed differs.
    EXPECT_EQ(core::sample_roots(comm, g, 16, 7), roots);
    EXPECT_NE(core::sample_roots(comm, g, 16, 8), roots);
  });
}

TEST(SampleRoots, SameOnEveryRank) {
  KroneckerParams params;
  params.scale = 8;
  simmpi::World world(4);
  const auto lists = world.run_collect<std::vector<VertexId>>(
      [&](simmpi::Comm& comm) {
        const DistGraph g = build_kronecker(comm, params);
        return core::sample_roots(comm, g, 8, 3);
      });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(lists[r], lists[0]);
}

TEST(SampleRoots, SkipsIsolatedVertices) {
  // Star graph: only vertex 0..n-1 touched by edges; make some isolated.
  EdgeList list = star_graph(8);
  list.num_vertices = 64;  // vertices 8..63 are isolated
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()), 64);
    const auto roots = core::sample_roots(comm, g, 8, 5);
    ASSERT_EQ(roots.size(), 8u);
    for (const auto r : roots) EXPECT_LT(r, 8u);
  });
}

TEST(SampleRoots, CapsAtEligibleCount) {
  EdgeList list;
  list.num_vertices = 16;
  list.edges = {{0, 1, 0.5f}};  // only two eligible vertices
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, list, 16);
    const auto roots = core::sample_roots(comm, g, 10, 1);
    EXPECT_EQ(roots.size(), 2u);
  });
}

TEST(SampleRoots, EmptyGraphYieldsNoRoots) {
  // The builder refuses zero-vertex graphs, but callers can still hold an
  // empty DistGraph (default-constructed, or drained by a filter); sampling
  // must return nothing instead of probing vertex 0 of nothing.
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g;
    EXPECT_TRUE(core::sample_roots(comm, g, 8, 1).empty());
  });
}

TEST(RunBenchmark, EmptyGraphProducesWellFormedEmptyReport) {
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g;
    core::RunnerOptions opts;
    opts.num_roots = 8;
    const auto report = core::run_benchmark(comm, g, opts);
    EXPECT_TRUE(report.runs.empty());
    EXPECT_TRUE(report.all_valid);
    EXPECT_TRUE(std::isfinite(report.harmonic_mean_teps));
    EXPECT_TRUE(std::isfinite(report.mean_seconds));
    EXPECT_EQ(report.harmonic_mean_teps, 0.0);
    EXPECT_EQ(report.mean_seconds, 0.0);
    if (comm.rank() == 0) {
      std::ostringstream out;
      report.print(out);  // must not choke on zero runs
      EXPECT_NE(out.str().find("all valid"), std::string::npos);
    }
  });
}

TEST(RunBenchmark, AllIsolatedGraphProducesWellFormedEmptyReport) {
  EdgeList list;
  list.num_vertices = 16;  // vertices exist, none has an edge
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, list, 16);
    core::RunnerOptions opts;
    opts.num_roots = 4;
    const auto report = core::run_benchmark(comm, g, opts);
    EXPECT_TRUE(report.runs.empty());
    EXPECT_TRUE(report.all_valid);
    EXPECT_TRUE(std::isfinite(report.harmonic_mean_teps));
    EXPECT_EQ(report.min_seconds, 0.0);
    EXPECT_EQ(report.max_seconds, 0.0);
  });
}

TEST(RunBenchmark, ProtocolProducesValidatedReport) {
  KroneckerParams params;
  params.scale = 9;
  params.edgefactor = 8;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::RunnerOptions opts;
    opts.num_roots = 4;
    const auto report = core::run_benchmark(comm, g, opts);
    EXPECT_TRUE(report.all_valid);
    ASSERT_EQ(report.runs.size(), 4u);
    EXPECT_GT(report.harmonic_mean_teps, 0.0);
    EXPECT_GT(report.mean_seconds, 0.0);
    EXPECT_LE(report.min_seconds, report.max_seconds);
    EXPECT_EQ(report.num_input_edges, params.num_edges());
    EXPECT_EQ(report.num_ranks, 4);
    for (const auto& run : report.runs) {
      EXPECT_TRUE(run.valid);
      EXPECT_GT(run.teps, 0.0);
      EXPECT_GT(run.reachable, 0u);
    }
    // Harmonic mean lies within [min, max] of per-root TEPS.
    double lo = report.runs[0].teps, hi = report.runs[0].teps;
    for (const auto& run : report.runs) {
      lo = std::min(lo, run.teps);
      hi = std::max(hi, run.teps);
    }
    EXPECT_GE(report.harmonic_mean_teps, lo * 0.999);
    EXPECT_LE(report.harmonic_mean_teps, hi * 1.001);
  });
}

TEST(RunBenchmark, BellmanFordPathWorks) {
  KroneckerParams params;
  params.scale = 8;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::RunnerOptions opts;
    opts.num_roots = 2;
    opts.algorithm = core::Algorithm::kBellmanFord;
    const auto report = core::run_benchmark(comm, g, opts);
    EXPECT_TRUE(report.all_valid);
    EXPECT_EQ(report.runs.size(), 2u);
  });
}

TEST(RunBenchmark, ReportPrintsSummary) {
  KroneckerParams params;
  params.scale = 7;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::RunnerOptions opts;
    opts.num_roots = 1;
    const auto report = core::run_benchmark(comm, g, opts);
    if (comm.rank() == 0) {
      std::ostringstream out;
      report.print(out);
      EXPECT_NE(out.str().find("harmonic mean TEPS"), std::string::npos);
      EXPECT_NE(out.str().find("all valid"), std::string::npos);
    }
  });
}

// Accumulating runs adds every field, round counters and timings too,
// except settled_bound, which keeps the tightest bound.
TEST(SsspStatsMerge, AddsEveryFieldButSettledBound) {
  core::SsspStats a;
  core::SsspStats b;
  a.buckets_processed = 4;
  b.buckets_processed = 6;
  a.pruned_apply = 2;
  b.pruned_apply = 3;
  a.total_seconds = 0.5;
  b.total_seconds = 0.25;
  a.settled_bound = 1.5;
  a.frontier_hist.add(8);
  b.frontier_hist.add(8);
  a.merge(b);
  EXPECT_EQ(a.buckets_processed, 10u);
  EXPECT_EQ(a.pruned_apply, 5u);
  EXPECT_EQ(a.total_seconds, 0.75);
  EXPECT_EQ(a.settled_bound, 1.5);
  EXPECT_EQ(a.frontier_hist.total_count(), 2u);
}

TEST(GlobalStats, SumsTrafficAndAveragesRounds) {
  KroneckerParams params;
  params.scale = 8;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspStats local;
    (void)core::delta_stepping(comm, g, 1, core::SsspConfig{}, &local);
    const auto total = core::global_stats(comm, local);
    // Round-type counters are global (identical per rank), so the
    // aggregate must equal the local value.
    EXPECT_EQ(total.buckets_processed, local.buckets_processed);
    EXPECT_EQ(total.light_iterations, local.light_iterations);
    // Traffic counters sum over ranks.
    EXPECT_GE(total.relax_generated, local.relax_generated);
    // Everything sent is received.
    EXPECT_EQ(total.relax_sent, total.relax_received);

    // A goal-directed run: a zero lower bound under a small budget prunes
    // without a real target.  The pruning counters are traffic-like.
    const std::vector<Weight> lb(static_cast<std::size_t>(g.local_count()),
                                 0.0f);
    core::RunControl pruned;
    pruned.prune_lb = &lb;
    pruned.prune_budget = 0.05f;
    core::SsspStats plocal;
    (void)core::delta_stepping(comm, g, 1, {}, &plocal, pruned);
    const auto ptotal = core::global_stats(comm, plocal);
    EXPECT_EQ(ptotal.pruned_expand, comm.allreduce_sum(plocal.pruned_expand));
    EXPECT_EQ(ptotal.pruned_apply, comm.allreduce_sum(plocal.pruned_apply));
    EXPECT_GT(ptotal.pruned_apply, 0u);
    EXPECT_EQ(ptotal.buckets_processed, plocal.buckets_processed);
    EXPECT_EQ(ptotal.total_seconds, comm.allreduce_max(plocal.total_seconds));
  });
}

TEST(GlobalStats, FrontierHistogramIsExact) {
  // Every rank of the synchronous engine records the same global frontier
  // per round, so the reduced histogram must equal each rank's own: its
  // sum and max too, not just its bucket counts.
  KroneckerParams params;
  params.scale = 11;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspStats local;
    (void)core::delta_stepping(comm, g, 1, core::SsspConfig{}, &local);
    const auto total = core::global_stats(comm, local);
    const util::Log2Histogram& mine = local.frontier_hist;
    const util::Log2Histogram& reduced = total.frontier_hist;
    ASSERT_GT(mine.total_count(), 1u);
    EXPECT_EQ(reduced.total_count(), mine.total_count());
    EXPECT_EQ(reduced.total_sum(), mine.total_sum());
    EXPECT_EQ(reduced.max_value(), mine.max_value());
    EXPECT_EQ(reduced.buckets(), mine.buckets());
  });
}

}  // namespace
