// Tests for the serving layer's versioned LRU store.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "serve/cache.hpp"

namespace {

using namespace g500;
using serve::Slice;
using RootStore = serve::VersionedStore<graph::VertexId, Slice>;

Slice slice_of(float value) {
  return std::make_shared<const std::vector<graph::Weight>>(4, value);
}

TEST(RootCache, HitMissAndLruOrder) {
  // Room for exactly two entries of 100 bytes each.
  RootStore cache(2, 100);
  EXPECT_EQ(cache.stats().capacity_entries, 2u);

  EXPECT_EQ(cache.lookup(1, 0), nullptr);
  cache.insert(1, slice_of(1.0f), 0);
  cache.insert(2, slice_of(2.0f), 0);
  ASSERT_NE(cache.lookup(1, 0), nullptr);  // 1 is now most-recent

  cache.insert(3, slice_of(3.0f), 0);  // evicts 2, the least-recent
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));

  const auto& s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident_entries, 2u);
  EXPECT_EQ(s.resident_bytes, 200u);
}

TEST(RootCache, ContainsDoesNotCountOrReorder) {
  RootStore cache(2, 100);
  cache.insert(1, slice_of(1.0f), 0);
  cache.insert(2, slice_of(2.0f), 0);
  EXPECT_TRUE(cache.contains(1));  // no LRU refresh
  cache.insert(3, slice_of(3.0f), 0);
  // 1 was least-recent despite the contains() probe, so it was evicted.
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(RootCache, ZeroBudgetRejectsInserts) {
  RootStore cache(0, 100);
  EXPECT_EQ(cache.stats().capacity_entries, 0u);
  cache.insert(1, slice_of(1.0f), 0);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.lookup(1, 0), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(RootCache, ReplaceExistingKeyKeepsFootprint) {
  RootStore cache(1, 100);
  cache.insert(7, slice_of(1.0f), 0);
  cache.insert(7, slice_of(9.0f), 0);
  EXPECT_EQ(cache.stats().resident_entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  const Slice* got = cache.lookup(7, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_FLOAT_EQ((*got)->front(), 9.0f);
}

TEST(RootCache, SharedSliceSurvivesEviction) {
  RootStore cache(1, 100);
  cache.insert(1, slice_of(1.0f), 0);
  const Slice* hit = cache.lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  const Slice held = *hit;
  cache.insert(2, slice_of(2.0f), 0);  // evicts key 1
  EXPECT_FALSE(cache.contains(1));
  // The caller's reference keeps the evicted slice alive and intact.
  EXPECT_FLOAT_EQ(held->front(), 1.0f);
}

TEST(RootCache, ResetCountersKeepsResidency) {
  RootStore cache(3, 100);
  cache.insert(1, slice_of(1.0f), 0);
  (void)cache.lookup(1, 0);
  (void)cache.lookup(5, 0);
  cache.reset_counters();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
  // Residency survives: the next lookup is a hit, not a miss.
  EXPECT_NE(cache.lookup(1, 0), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().resident_entries, 1u);
}

TEST(RootCache, ClearDropsEverything) {
  RootStore cache(3, 100);
  cache.insert(1, slice_of(1.0f), 0);
  cache.insert(2, slice_of(2.0f), 0);
  cache.retain_if([](graph::VertexId) { return false; }, 0);
  EXPECT_EQ(cache.stats().resident_entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(RootCache, HitRate) {
  RootStore cache(2, 100);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);  // no lookups yet
  cache.insert(1, slice_of(1.0f), 0);
  (void)cache.lookup(1, 0);
  (void)cache.lookup(1, 0);
  (void)cache.lookup(9, 0);
  EXPECT_NEAR(cache.stats().hit_rate(), 2.0 / 3.0, 1e-12);
}

}  // namespace
