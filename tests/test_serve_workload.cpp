// Tests for the deterministic simulated-clock serving workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "serve/workload.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using serve::Query;
using serve::QueryKind;
using serve::Workload;
using serve::WorkloadConfig;

WorkloadConfig base_config() {
  WorkloadConfig c;
  c.seed = 42;
  c.ticks = 64;
  c.arrivals_per_tick = 3.0;
  c.zipf_s = 1.1;
  c.roots = {10, 20, 30, 40, 50, 60, 70, 80};
  c.num_vertices = 100;
  return c;
}

bool same_query(const Query& a, const Query& b) {
  return a.id == b.id && a.arrival_tick == b.arrival_tick &&
         a.kind == b.kind && a.root == b.root && a.target == b.target;
}

TEST(ServeWorkload, DeterministicAcrossInstances) {
  const Workload a(base_config());
  const Workload b(base_config());
  const auto ta = a.trace();
  const auto tb = b.trace();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_TRUE(same_query(ta[i], tb[i])) << "query " << i;
  }
  // A different seed changes the trace.
  auto other = base_config();
  other.seed = 43;
  const auto tc = Workload(other).trace();
  bool any_diff = tc.size() != ta.size();
  for (std::size_t i = 0; !any_diff && i < ta.size(); ++i) {
    any_diff = !same_query(ta[i], tc[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ServeWorkload, TraceIsConcatenationOfArrivals) {
  const Workload w(base_config());
  std::vector<Query> stitched;
  for (std::uint64_t t = 0; t < base_config().ticks; ++t) {
    const auto batch = w.arrivals(t);
    for (const auto& q : batch) {
      EXPECT_EQ(q.arrival_tick, t);
      stitched.push_back(q);
    }
  }
  const auto full = w.trace();
  ASSERT_EQ(full.size(), stitched.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(same_query(full[i], stitched[i])) << "query " << i;
  }
}

TEST(ServeWorkload, IdsAreSequentialFromZero) {
  const Workload w(base_config());
  const auto full = w.trace();
  ASSERT_FALSE(full.empty());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].id, i);
  }
}

TEST(ServeWorkload, PoissonMeanIsNearLambda) {
  auto c = base_config();
  c.ticks = 4096;
  c.arrivals_per_tick = 3.0;
  const Workload w(c);
  const double mean =
      static_cast<double>(w.trace().size()) / static_cast<double>(c.ticks);
  // 4096 ticks of Poisson(3): the sample mean is within ~4 sigma of 3.
  EXPECT_NEAR(mean, 3.0, 4.0 * std::sqrt(3.0 / 4096.0));
}

TEST(ServeWorkload, ZipfSkewsTowardLowRanks) {
  auto c = base_config();
  c.ticks = 2048;
  c.zipf_s = 1.2;
  const Workload w(c);
  std::map<graph::VertexId, std::uint64_t> counts;
  for (const auto& q : w.trace()) {
    ASSERT_EQ(q.kind, QueryKind::kPointToPoint);
    counts[q.root]++;
    EXPECT_LT(q.target, c.num_vertices);
  }
  // Rank 0 of the universe must dominate the tail rank clearly.
  EXPECT_GT(counts[c.roots.front()], 2 * counts[c.roots.back()]);
  // Every root must be from the universe.
  for (const auto& [root, n] : counts) {
    EXPECT_NE(std::find(c.roots.begin(), c.roots.end(), root),
              c.roots.end())
        << "root " << root;
    (void)n;
  }
}

TEST(ServeWorkload, ZeroExponentIsRoughlyUniform) {
  auto c = base_config();
  c.ticks = 4096;
  c.zipf_s = 0.0;
  const Workload w(c);
  std::map<graph::VertexId, std::uint64_t> counts;
  for (const auto& q : w.trace()) counts[q.root]++;
  const double expect_each =
      static_cast<double>(w.trace().size()) /
      static_cast<double>(c.roots.size());
  for (const auto root : c.roots) {
    EXPECT_NEAR(static_cast<double>(counts[root]), expect_each,
                0.2 * expect_each)
        << "root " << root;
  }
}

TEST(ServeWorkload, NearestFractionMixesKinds) {
  auto c = base_config();
  c.ticks = 1024;
  c.nearest_fraction = 0.25;
  const Workload w(c);
  std::uint64_t nearest = 0;
  std::uint64_t p2p = 0;
  for (const auto& q : w.trace()) {
    (q.kind == QueryKind::kNearestFacility ? nearest : p2p)++;
  }
  ASSERT_GT(nearest + p2p, 0u);
  const double frac =
      static_cast<double>(nearest) / static_cast<double>(nearest + p2p);
  EXPECT_NEAR(frac, 0.25, 0.05);

  c.nearest_fraction = 1.0;
  c.roots.clear();  // allowed: no point-to-point queries need the universe
  for (const auto& q : Workload(c).trace()) {
    EXPECT_EQ(q.kind, QueryKind::kNearestFacility);
  }
}

// Regression: the unchunked Knuth product method underflows for large
// lambdas — exp(-1000) rounds to 0, the product loop only terminates when
// its running product underflows (~780 iterations), and every tick drew
// ~780 arrivals no matter the configured rate.  Chunking the rate keeps
// the sample mean tracking lambda.
TEST(ServeWorkload, PoissonMeanTracksLargeLambda) {
  auto c = base_config();
  c.ticks = 256;
  c.arrivals_per_tick = 1000.0;
  const Workload w(c);
  const double mean =
      static_cast<double>(w.trace().size()) / static_cast<double>(c.ticks);
  // 256 ticks of Poisson(1000): sample mean within ~4 sigma of 1000 —
  // the pre-fix generator sat pinned near 780.
  EXPECT_NEAR(mean, 1000.0, 4.0 * std::sqrt(1000.0 / 256.0));
}

/// Hash of every field trace() sets, query by query.
std::uint64_t trace_digest(const Workload& w) {
  std::uint64_t h = 0;
  for (const Query& q : w.trace()) {
    const std::uint64_t fields[] = {q.id,
                                    q.arrival_tick,
                                    static_cast<std::uint64_t>(q.kind),
                                    static_cast<std::uint64_t>(q.kernel),
                                    q.root,
                                    q.target,
                                    q.deadline_tick};
    h = util::hash_bytes(fields, sizeof(fields), h);
  }
  return h;
}

TEST(ServeWorkload, GoldenTraceDigest) {
  // Pins the generated traces: the serving digests of the benchmark and
  // the harnesses rest on them, so a rewrite of the generator must
  // reproduce them query for query.
  EXPECT_EQ(trace_digest(Workload(base_config())), 0x5a0437c906edbfd3ULL);

  auto mixed = base_config();
  mixed.analytics_fraction = 0.25;
  mixed.nearest_fraction = 0.125;
  mixed.deadline_ticks = 16;
  EXPECT_EQ(trace_digest(Workload(mixed)), 0xd4374dc6d08f537cULL);
}

TEST(ServeWorkload, RejectsInvalidConfig) {
  auto c = base_config();
  c.ticks = 0;
  EXPECT_THROW(Workload{c}, std::invalid_argument);

  c = base_config();
  c.arrivals_per_tick = -1.0;
  EXPECT_THROW(Workload{c}, std::invalid_argument);

  c = base_config();
  c.nearest_fraction = 1.5;
  EXPECT_THROW(Workload{c}, std::invalid_argument);

  c = base_config();
  c.roots.clear();  // needed while nearest_fraction < 1
  EXPECT_THROW(Workload{c}, std::invalid_argument);

  c = base_config();
  c.num_vertices = 0;
  EXPECT_THROW(Workload{c}, std::invalid_argument);
}

}  // namespace
