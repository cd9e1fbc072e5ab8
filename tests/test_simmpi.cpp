// Unit tests for the simulated MPI runtime: collective semantics, traffic
// accounting and failure propagation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "simmpi/comm.hpp"

namespace {

using namespace g500;

class SimMpiRanks : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, SimMpiRanks,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST_P(SimMpiRanks, AlltoallvDeliversEverything) {
  simmpi::World world(GetParam());
  world.run([](simmpi::Comm& comm) {
    const int P = comm.size();
    std::vector<std::vector<int>> out(P);
    for (int d = 0; d < P; ++d) {
      // rank r sends {r*100+d} repeated (d+1) times to rank d.
      out[d].assign(d + 1, comm.rank() * 100 + d);
    }
    const std::vector<int> in = comm.alltoallv(out);
    // Received: from each source s, (rank+1) copies of s*100+rank, in rank
    // order.
    ASSERT_EQ(in.size(), static_cast<std::size_t>(P * (comm.rank() + 1)));
    std::size_t idx = 0;
    for (int s = 0; s < P; ++s) {
      for (int k = 0; k <= comm.rank(); ++k) {
        EXPECT_EQ(in[idx++], s * 100 + comm.rank());
      }
    }
  });
}

TEST_P(SimMpiRanks, AlltoallvOffsetsKeepBoundaries) {
  simmpi::World world(GetParam());
  world.run([](simmpi::Comm& comm) {
    const int P = comm.size();
    // Rank s sends s copies of s to every rank: rank 0's boxes are empty.
    const auto r = static_cast<std::uint64_t>(comm.rank());
    const std::vector<std::vector<std::uint64_t>> out(
        P, std::vector<std::uint64_t>(r, r));
    std::vector<std::size_t> offsets{7, 7, 7};  // replaced, not appended to
    const auto in = comm.alltoallv(out, &offsets);
    ASSERT_EQ(offsets.size(), static_cast<std::size_t>(P) + 1);
    EXPECT_EQ(offsets[0], 0u);
    EXPECT_EQ(offsets[P], in.size());
    for (int s = 0; s < P; ++s) {
      ASSERT_EQ(offsets[s + 1] - offsets[s], static_cast<std::size_t>(s));
      for (std::size_t i = offsets[s]; i < offsets[s + 1]; ++i) {
        EXPECT_EQ(in[i], static_cast<std::uint64_t>(s));
      }
    }
  });
}

TEST_P(SimMpiRanks, AllreduceSumMinMax) {
  simmpi::World world(GetParam());
  const int P = GetParam();
  world.run([P](simmpi::Comm& comm) {
    const int r = comm.rank();
    EXPECT_EQ(comm.allreduce_sum(r), P * (P - 1) / 2);
    EXPECT_EQ(comm.allreduce_min(r), 0);
    EXPECT_EQ(comm.allreduce_max(r), P - 1);
    EXPECT_TRUE(comm.allreduce_or(r == P - 1));
    EXPECT_FALSE(comm.allreduce_or(false));
  });
}

TEST_P(SimMpiRanks, AllreduceVecElementwise) {
  simmpi::World world(GetParam());
  const int P = GetParam();
  world.run([P](simmpi::Comm& comm) {
    const std::vector<int> mine{comm.rank(), 1, -comm.rank()};
    const auto sum = comm.allreduce_vec<int>(
        mine, [](int a, int b) { return a + b; });
    ASSERT_EQ(sum.size(), 3u);
    EXPECT_EQ(sum[0], P * (P - 1) / 2);
    EXPECT_EQ(sum[1], P);
    EXPECT_EQ(sum[2], -P * (P - 1) / 2);
  });
}

TEST_P(SimMpiRanks, AllgatherCollectsInRankOrder) {
  simmpi::World world(GetParam());
  const int P = GetParam();
  world.run([P](simmpi::Comm& comm) {
    const auto all = comm.allgather(comm.rank() * 3);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) EXPECT_EQ(all[s], s * 3);
  });
}

TEST_P(SimMpiRanks, AllgathervVariableLengths) {
  simmpi::World world(GetParam());
  const int P = GetParam();
  world.run([P](simmpi::Comm& comm) {
    std::vector<char> mine(static_cast<std::size_t>(comm.rank()),
                           static_cast<char>('a' + comm.rank()));
    std::vector<std::size_t> offsets;
    const auto all = comm.allgatherv(mine, &offsets);
    ASSERT_EQ(offsets.size(), static_cast<std::size_t>(P) + 1);
    EXPECT_EQ(offsets.front(), 0u);
    EXPECT_EQ(offsets.back(), all.size());
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(offsets[s + 1] - offsets[s], static_cast<std::size_t>(s));
      for (std::size_t i = offsets[s]; i < offsets[s + 1]; ++i) {
        EXPECT_EQ(all[i], static_cast<char>('a' + s));
      }
    }
  });
}

TEST_P(SimMpiRanks, BroadcastFromEveryRoot) {
  simmpi::World world(GetParam());
  const int P = GetParam();
  world.run([P](simmpi::Comm& comm) {
    for (int root = 0; root < P; ++root) {
      double v = comm.rank() == root ? 2.5 * root : -1.0;
      comm.broadcast(v, root);
      EXPECT_DOUBLE_EQ(v, 2.5 * root);
    }
  });
}

TEST(SimMpi, BarrierSynchronizes) {
  simmpi::World world(4);
  std::atomic<int> counter{0};
  world.run([&counter](simmpi::Comm& comm) {
    counter.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must see all increments.
    EXPECT_EQ(counter.load(), 4);
  });
}

TEST(SimMpi, StatsCountOnlyRemoteTraffic) {
  simmpi::World world(2);
  world.run([](simmpi::Comm& comm) {
    std::vector<std::vector<std::uint32_t>> out(2);
    out[comm.rank()] = {1, 2, 3};       // self: free
    out[1 - comm.rank()] = {4, 5};      // remote: 8 bytes
    (void)comm.alltoallv(out);
  });
  const auto total = world.aggregate_stats();
  EXPECT_EQ(total.alltoallv.bytes, 2u * 2 * sizeof(std::uint32_t));
  EXPECT_EQ(total.alltoallv.messages, 2u);
  EXPECT_EQ(total.alltoallv.calls, 2u);  // one call per rank
}

TEST(SimMpi, StatsTrafficMatrix) {
  simmpi::World world(3);
  world.run([](simmpi::Comm& comm) {
    std::vector<std::vector<std::uint8_t>> out(3);
    if (comm.rank() == 0) out[2] = {1, 2, 3, 4, 5};  // 5 bytes 0->2
    (void)comm.alltoallv(out);
  });
  EXPECT_EQ(world.rank_stats(0).bytes_to[2], 5u);
  EXPECT_EQ(world.rank_stats(0).bytes_to[1], 0u);
  EXPECT_EQ(world.rank_stats(1).total_bytes(), 0u);
}

TEST(SimMpi, ResetStatsClears) {
  simmpi::World world(2);
  world.run([](simmpi::Comm& comm) { comm.barrier(); });
  EXPECT_GT(world.aggregate_stats().barriers, 0u);
  world.reset_stats();
  EXPECT_EQ(world.aggregate_stats().barriers, 0u);
  EXPECT_EQ(world.aggregate_stats().rounds(), 0u);
}

TEST(SimMpi, StatsAccumulateAcrossRuns) {
  simmpi::World world(2);
  world.run([](simmpi::Comm& comm) { comm.barrier(); });
  world.run([](simmpi::Comm& comm) { comm.barrier(); });
  EXPECT_EQ(world.aggregate_stats().barriers, 4u);  // 2 ranks x 2 runs
}

TEST(SimMpi, RunCollectGathersReturnValues) {
  simmpi::World world(4);
  const auto results = world.run_collect<int>(
      [](simmpi::Comm& comm) { return comm.rank() * comm.rank(); });
  ASSERT_EQ(results.size(), 4u);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(results[r], r * r);
}

// The failure tests run twice: once with the failing rank throwing at
// once, while its peers still poll the barrier, and once with it sleeping
// past the poll budget first, so its peers have parked.
enum class Arrival { kPeersPolling, kPeersParked };

class SimMpiFailure : public ::testing::TestWithParam<Arrival> {
 protected:
  /// Called by a failing rank just before it throws.
  void fail_late() const {
    if (GetParam() == Arrival::kPeersParked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    Arrivals, SimMpiFailure,
    ::testing::Values(Arrival::kPeersPolling, Arrival::kPeersParked),
    [](const ::testing::TestParamInfo<Arrival>& info) {
      return std::string(info.param == Arrival::kPeersPolling ? "PeersPolling"
                                                              : "PeersParked");
    });

TEST_P(SimMpiFailure, ExceptionPropagatesFromOneRank) {
  simmpi::World world(4);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 comm.barrier();
                 if (comm.rank() == 2) {
                   fail_late();
                   throw std::runtime_error("rank 2 failed");
                 }
                 // Survivors wait on a barrier; the failure must release
                 // them instead of deadlocking.
                 comm.barrier();
               }),
               std::runtime_error);
}

TEST_P(SimMpiFailure, WorldIsReusableAfterFailure) {
  simmpi::World world(3);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 if (comm.rank() == 0) {
                   fail_late();
                   throw std::logic_error("boom");
                 }
                 comm.barrier();
               }),
               std::logic_error);
  // A failed run must not poison the next one.
  world.run([](simmpi::Comm& comm) {
    comm.barrier();
    EXPECT_EQ(comm.allreduce_sum(1), 3);
  });
}

TEST_P(SimMpiFailure, TwoRanksThrowInTheSameRound) {
  simmpi::World world(4);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 comm.barrier();
                 if (comm.rank() == 1 || comm.rank() == 3) {
                   fail_late();
                   throw std::runtime_error("concurrent failure");
                 }
                 comm.barrier();
                 ADD_FAILURE() << "survivors must abort, not continue";
               }),
               std::runtime_error);
  world.run([](simmpi::Comm& comm) { EXPECT_EQ(comm.allreduce_sum(1), 4); });
}

TEST_P(SimMpiFailure, ThrowWhilePeersAreMidAllgatherv) {
  // The victim dies before ever publishing; peers are already waiting
  // inside the collective and must unwind instead of deadlocking.
  simmpi::World world(3);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 if (comm.rank() == 2) {
                   fail_late();
                   throw std::runtime_error("died before the exchange");
                 }
                 std::vector<int> mine(comm.rank() + 1, comm.rank());
                 (void)comm.allgatherv(mine);
               }),
               std::runtime_error);
  world.run([](simmpi::Comm& comm) { EXPECT_EQ(comm.allreduce_sum(1), 3); });
}

TEST(SimMpi, MismatchedCollectivesRaiseNamedError) {
  // Rank 0 reduces floats while rank 1 reduces doubles, so each would read
  // the other's slot as its own type.  The world must abort with a named
  // error before either rank reads, and stay reusable.
  simmpi::World world(2);
  try {
    world.run([](simmpi::Comm& comm) {
      if (comm.rank() == 0) {
        (void)comm.allreduce_sum<float>(1.0f);
      } else {
        (void)comm.allreduce_sum<double>(1.0);
      }
      ADD_FAILURE() << "no rank may leave a mismatched collective";
    });
    ADD_FAILURE() << "expected CollectiveMismatchError";
  } catch (const simmpi::CollectiveMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("allreduce<4 B>"), std::string::npos) << what;
    EXPECT_NE(what.find("allreduce<8 B>"), std::string::npos) << what;
  }
  world.run([](simmpi::Comm& comm) { EXPECT_EQ(comm.allreduce_sum(1), 2); });
}

TEST(SimMpi, MismatchedOperationsRaiseNamedError) {
  // A scalar and a vector reduction are both kAllreduce but publish
  // different objects.  The one-phase barrier posts a descriptor too:
  // unchecked, rank 0 would leave it while rank 1 waits forever in the
  // reduction's release phase.
  simmpi::World world(2);
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 if (comm.rank() == 0) {
                   (void)comm.allreduce_sum<std::uint64_t>(1);
                 } else {
                   (void)comm.allreduce_vec<std::uint64_t>(
                       {1}, [](std::uint64_t a, std::uint64_t b) {
                         return a + b;
                       });
                 }
               }),
               simmpi::CollectiveMismatchError);
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 comm.barrier();
                 if (comm.rank() == 0) {
                   comm.barrier();
                 } else {
                   (void)comm.allreduce_sum(1);
                 }
               }),
               simmpi::CollectiveMismatchError);
  world.run([](simmpi::Comm& comm) { EXPECT_EQ(comm.allreduce_sum(1), 2); });
}

TEST(SimMpi, RankThatReturnedFailsItsPeersNextCollective) {
  // Rank 0 returns while its peers enter another collective, which used to
  // leave them waiting forever.  They must raise a named error instead,
  // whether rank 0's last call was a one-phase barrier, a reduction with a
  // release phase, or nothing at all, and the world must stay reusable.
  for (const int ranks : {2, 3}) {
    for (const int lead_in : {0, 1, 2}) {
      simmpi::World world(ranks);
      try {
        world.run([lead_in](simmpi::Comm& comm) {
          if (lead_in == 1) comm.barrier();
          if (lead_in == 2) (void)comm.allreduce_sum(1);
          if (comm.rank() == 0) return;
          (void)comm.allreduce_min<std::uint64_t>(1);
          ADD_FAILURE() << "no rank may finish a collective a peer left";
        });
        ADD_FAILURE() << "expected CollectiveMismatchError";
      } catch (const simmpi::CollectiveMismatchError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("allreduce<8 B> while rank 0 had returned"),
                  std::string::npos)
            << what;
      }
      // A normal run's last collective is unaffected by the departures.
      const auto sums = world.run_collect<int>(
          [](simmpi::Comm& comm) { return comm.allreduce_sum(1); });
      for (const int s : sums) EXPECT_EQ(s, ranks);
    }
  }
}

TEST(SimMpi, MismatchedVectorLengthsThrow) {
  simmpi::World world(2);
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 std::vector<std::vector<int>> too_small(1);
                 (void)comm.alltoallv(too_small);
               }),
               std::invalid_argument);
}

TEST(SimMpi, SwallowedValidationErrorStillAbortsPeers) {
  // Argument-validation errors go through the world-abort path: even if
  // the offending rank catches the exception and tries to continue, the
  // world is already failed and every rank (the offender included) unwinds
  // at its next sync instead of pairing mismatched collectives.
  simmpi::World world(3);
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 if (comm.rank() == 0) {
                   try {
                     std::vector<std::vector<int>> too_small(1);
                     (void)comm.alltoallv(too_small);
                   } catch (const std::invalid_argument&) {
                     // Swallow and carry on as if nothing happened.
                   }
                 }
                 comm.barrier();
                 ADD_FAILURE() << "no rank may pass a poisoned barrier";
               }),
               std::invalid_argument);
}

TEST(SimMpi, AllreduceVecLengthMismatchAbortsWorld) {
  simmpi::World world(2);
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 std::vector<int> mine(comm.rank() == 0 ? 2 : 3, 1);
                 (void)comm.allreduce_vec<int>(
                     mine, [](int a, int b) { return a + b; });
               }),
               std::invalid_argument);
  // The mismatch must not poison the next run.
  world.run([](simmpi::Comm& comm) { EXPECT_EQ(comm.allreduce_sum(1), 2); });
}

TEST(SimMpi, BadBroadcastRootThrows) {
  simmpi::World world(2);
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 int v = 0;
                 comm.broadcast(v, 5);
               }),
               std::invalid_argument);
}

TEST(SimMpi, ZeroRanksRejected) {
  EXPECT_THROW(simmpi::World w(0), std::invalid_argument);
}

TEST(SimMpi, SingleRankCollectivesAreIdentity) {
  simmpi::World world(1);
  world.run([](simmpi::Comm& comm) {
    EXPECT_EQ(comm.allreduce_sum(7), 7);
    const auto g = comm.allgather(3.5);
    ASSERT_EQ(g.size(), 1u);
    std::vector<std::vector<int>> out(1, std::vector<int>{1, 2});
    const auto in = comm.alltoallv(out);
    EXPECT_EQ(in, (std::vector<int>{1, 2}));
  });
  // Self traffic is free.
  EXPECT_EQ(world.aggregate_stats().total_bytes(),
            world.aggregate_stats().allreduce.bytes +
                world.aggregate_stats().allgather.bytes);
}

TEST(SimMpi, DeterministicFloatReduction) {
  // Reduction order is rank 0..P-1 on every rank, so float sums are
  // bit-identical across ranks.
  simmpi::World world(8);
  const auto results = world.run_collect<float>([](simmpi::Comm& comm) {
    const float mine = 0.1f * static_cast<float>(comm.rank() + 1);
    return comm.allreduce_sum(mine);
  });
  for (int r = 1; r < 8; ++r) EXPECT_EQ(results[0], results[r]);
}

TEST(SimMpi, ManySmallRoundsSurvive) {
  // Stress the barrier reuse: thousands of collective phases.
  simmpi::World world(4);
  world.run([](simmpi::Comm& comm) {
    std::uint64_t acc = 0;
    for (int i = 0; i < 2000; ++i) {
      acc += comm.allreduce_sum<std::uint64_t>(1);
    }
    EXPECT_EQ(acc, 2000u * 4);
  });
}

TEST(SimMpi, SkewedArrivalsParkAndWake) {
  // Mixed collectives; before every 64th call a rotating rank sleeps about
  // 1 ms, so its peers run through their poll budget and park until it
  // arrives.  Every result is checked against its closed form.
  simmpi::World world(4);
  world.run([](simmpi::Comm& comm) {
    const std::int64_t P = comm.size();
    const std::int64_t me = comm.rank();
    int bad = 0;
    int first_bad = -1;
    for (int i = 0; i < 10000; ++i) {
      if (i % 64 == 0 && me == (i / 64) % P) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      bool ok = true;
      switch (i % 4) {
        case 0:
          ok = comm.allreduce_min<std::int64_t>(i * P + (P - 1 - me)) == i * P;
          break;
        case 1: {
          // Rank r sends (i + r) % 4 copies of i + r.
          const std::vector<std::int64_t> mine(
              static_cast<std::size_t>((i + me) % 4), i + me);
          const auto all = comm.allgatherv(mine);
          std::vector<std::int64_t> expect;
          for (std::int64_t r = 0; r < P; ++r) {
            expect.insert(expect.end(), static_cast<std::size_t>((i + r) % 4),
                          i + r);
          }
          ok = all == expect;
          break;
        }
        case 2: {
          // Rank s sends rank d (i + s + d) % 3 copies of (i * P + s) * P + d.
          std::vector<std::vector<std::int64_t>> out(
              static_cast<std::size_t>(P));
          for (std::int64_t d = 0; d < P; ++d) {
            out[d].assign(static_cast<std::size_t>((i + me + d) % 3),
                          (i * P + me) * P + d);
          }
          const auto in = comm.alltoallv(out);
          std::vector<std::int64_t> expect;
          for (std::int64_t s = 0; s < P; ++s) {
            expect.insert(expect.end(),
                          static_cast<std::size_t>((i + s + me) % 3),
                          (i * P + s) * P + me);
          }
          ok = in == expect;
          break;
        }
        default:
          comm.barrier();
          break;
      }
      if (!ok && bad++ == 0) first_bad = i;
    }
    EXPECT_EQ(bad, 0) << "rank " << me << ", first wrong call " << first_bad;
  });
}

}  // namespace
