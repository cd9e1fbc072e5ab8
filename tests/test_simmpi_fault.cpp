// Fault-injection tests: planned crashes, payload corruption (with and
// without checksum detection), stall accounting, and the determinism /
// one-shot properties the checkpoint/restart layer relies on.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"

namespace {

using namespace g500;

TEST(FaultInjection, CrashFiresAtExactCollective) {
  simmpi::World world(4);
  world.set_fault_plan(simmpi::FaultPlan{}.crash(/*rank=*/1, /*at_call=*/3));
  int reached = 0;
  try {
    world.run([&](simmpi::Comm& comm) {
      comm.barrier();                 // call 1
      (void)comm.allreduce_sum(1);    // call 2
      if (comm.rank() == 1) ++reached;
      comm.barrier();                 // call 3: rank 1 dies here
      ADD_FAILURE() << "no rank survives the crash round";
    });
    FAIL() << "expected InjectedCrashError";
  } catch (const simmpi::InjectedCrashError& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.call_index(), 3u);
  }
  EXPECT_EQ(reached, 1);  // the victim made it past call 2
  EXPECT_EQ(world.injector()->events_fired(), 1u);
}

TEST(FaultInjection, SamePlanSameSeedIsDeterministic) {
  const auto plan = simmpi::FaultPlan::random(/*seed=*/42, /*num_ranks=*/4,
                                              /*crashes=*/2, /*corruptions=*/1,
                                              /*stalls=*/3, /*horizon=*/100);
  const auto again = simmpi::FaultPlan::random(42, 4, 2, 1, 3, 100);
  ASSERT_EQ(plan.events().size(), again.events().size());
  ASSERT_EQ(plan.events().size(), 6u);
  for (std::size_t i = 0; i < plan.events().size(); ++i) {
    EXPECT_EQ(plan.events()[i].kind, again.events()[i].kind);
    EXPECT_EQ(plan.events()[i].rank, again.events()[i].rank);
    EXPECT_EQ(plan.events()[i].at_call, again.events()[i].at_call);
    EXPECT_GE(plan.events()[i].rank, 0);
    EXPECT_LT(plan.events()[i].rank, 4);
    EXPECT_GE(plan.events()[i].at_call, 1u);
    EXPECT_LE(plan.events()[i].at_call, 100u);
  }
  // A different seed reshuffles the schedule.
  const auto other = simmpi::FaultPlan::random(43, 4, 2, 1, 3, 100);
  bool differs = false;
  for (std::size_t i = 0; i < plan.events().size(); ++i) {
    differs = differs || plan.events()[i].rank != other.events()[i].rank ||
              plan.events()[i].at_call != other.events()[i].at_call;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjection, CrashReproducesAcrossWorlds) {
  // The same plan against the same program kills the same rank at the same
  // call — the property that makes failure runs debuggable.
  for (int trial = 0; trial < 2; ++trial) {
    simmpi::World world(3);
    world.set_fault_plan(simmpi::FaultPlan{}.crash(2, 2));
    try {
      world.run([](simmpi::Comm& comm) {
        for (int i = 0; i < 5; ++i) (void)comm.allreduce_sum(i);
      });
      FAIL() << "expected InjectedCrashError";
    } catch (const simmpi::InjectedCrashError& e) {
      EXPECT_EQ(e.rank(), 2);
      EXPECT_EQ(e.call_index(), 2u);
    }
  }
}

TEST(FaultInjection, TwoRanksCrashInTheSameRound) {
  // Both crashes are planned for the same round.  Whether the second fires
  // in the first run or on the retry depends on how fast the abort
  // propagates; either way both events must fire before a run completes,
  // and the double failure must not wedge the world.
  simmpi::World world(4);
  world.set_fault_plan(simmpi::FaultPlan{}.crash(0, 2).crash(2, 2));
  int crashes = 0;
  bool completed = false;
  for (int attempt = 0; attempt < 3 && !completed; ++attempt) {
    try {
      world.run([](simmpi::Comm& comm) {
        comm.barrier();
        comm.barrier();  // ranks 0 and 2 both die here (or on retry)
        comm.barrier();
      });
      completed = true;
    } catch (const simmpi::InjectedCrashError&) {
      ++crashes;
    }
  }
  EXPECT_TRUE(completed);
  EXPECT_GE(crashes, 1);
  EXPECT_LE(crashes, 2);
  EXPECT_EQ(world.injector()->events_fired(), 2u);
  world.run([](simmpi::Comm& comm) { EXPECT_EQ(comm.allreduce_sum(1), 4); });
}

TEST(FaultInjection, CrashLandsWhilePeersAreMidAllgatherv) {
  simmpi::World world(3);
  world.set_fault_plan(simmpi::FaultPlan{}.crash(0, 2));
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 comm.barrier();  // call 1 everywhere
                 // Call 2: rank 0 dies at entry while ranks 1-2 are already
                 // publishing their variable-length contributions.
                 std::vector<int> mine(comm.rank() + 1, comm.rank());
                 (void)comm.allgatherv(mine);
               }),
               simmpi::InjectedCrashError);
}

TEST(FaultInjection, PeersFinishTheWorkBeforeTheCollectiveTheVictimDied) {
  // Rank 0 parks in call 1 until rank 1 completes it, and rank 1 dies at
  // the entry of call 2 at once.  Rank 0 usually wakes after that failure;
  // it must still run the code between the two calls, as a snapshot taken
  // there would be, and abort only in call 2.
  for (int attempt = 0; attempt < 5; ++attempt) {
    simmpi::World world(2);
    world.set_fault_plan(simmpi::FaultPlan{}.crash(1, 2));
    bool between = false;
    EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                   if (comm.rank() == 1) {
                     std::this_thread::sleep_for(std::chrono::milliseconds(5));
                   }
                   comm.barrier();  // call 1
                   if (comm.rank() == 0) between = true;
                   comm.barrier();  // call 2: rank 1 dies at entry
                 }),
                 simmpi::InjectedCrashError);
    EXPECT_TRUE(between) << "attempt " << attempt;
  }
}

TEST(FaultInjection, StallIsChargedNotSlept) {
  simmpi::World world(2);
  world.enable_trace();
  world.set_fault_plan(simmpi::FaultPlan{}.stall(1, 2, 0.25));
  world.run([](simmpi::Comm& comm) {
    comm.barrier();               // call 1
    (void)comm.allreduce_sum(1);  // call 2: rank 1 stalls here
  });
  EXPECT_DOUBLE_EQ(world.rank_stats(1).stall_seconds, 0.25);
  EXPECT_DOUBLE_EQ(world.rank_stats(0).stall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(world.aggregate_stats().stall_seconds, 0.25);
  // The merged trace charges the round with the slowest rank's stall.
  const auto rounds = world.merged_trace();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_DOUBLE_EQ(rounds[0].stall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(rounds[1].stall_seconds, 0.25);
}

TEST(FaultInjection, ChecksumsDetectInjectedCorruption) {
  simmpi::World world(2);
  world.enable_checksums();
  // Rank 1's first alltoallv: flip a bit in the payload arriving from
  // rank 0, after the sender computed its checksum.
  world.set_fault_plan(
      simmpi::FaultPlan{}.corrupt(/*rank=*/1, /*at_alltoallv=*/1,
                                  /*src=*/0, /*bit=*/5));
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 std::vector<std::vector<int>> out(2);
                 out[1 - comm.rank()] = {42};
                 (void)comm.alltoallv(out);
                 ADD_FAILURE() << "corruption must stop every rank";
               }),
               simmpi::CorruptionError);
}

TEST(FaultInjection, CorruptionWithoutChecksumsIsSilent) {
  // Without verification the damaged payload is delivered as-is — the
  // failure mode a real machine exhibits, and what checksums exist to
  // catch.
  simmpi::World world(2);
  world.set_fault_plan(
      simmpi::FaultPlan{}.corrupt(1, 1, /*src=*/0, /*bit=*/5));
  const auto received = world.run_collect<int>([](simmpi::Comm& comm) {
    std::vector<std::vector<int>> out(2);
    out[1 - comm.rank()] = {42};
    return comm.alltoallv(out).at(0);
  });
  EXPECT_EQ(received[0], 42);        // link 1 -> 0 is untouched
  EXPECT_EQ(received[1], 42 ^ 32);   // bit 5 of the first byte flipped
}

TEST(FaultInjection, CleanChecksummedRunsPass) {
  simmpi::World world(4);
  world.enable_checksums();
  for (int trial = 0; trial < 2; ++trial) {
    world.run([](simmpi::Comm& comm) {
      const int P = comm.size();
      std::vector<std::vector<std::uint64_t>> out(P);
      for (int d = 0; d < P; ++d) {
        out[d].assign(static_cast<std::size_t>(d + 1),
                      static_cast<std::uint64_t>(comm.rank()));
      }
      std::vector<std::size_t> from;
      const auto in = comm.alltoallv(out, &from);
      for (int s = 0; s < P; ++s) {
        ASSERT_EQ(from[s + 1] - from[s],
                  static_cast<std::size_t>(comm.rank() + 1));
        EXPECT_EQ(in[from[s]], static_cast<std::uint64_t>(s));
      }
    });
  }
}

TEST(FaultInjection, AlltoallvConcatenatesUnevenBoxesAndNamesTheDamagedSource) {
  // Rank s sends s + d copies of 10 * s + d to rank d, so rank 0 sends
  // itself nothing: boxes of 0 to 4 records, delivered in source order.
  const auto exchange = [](simmpi::Comm& comm) {
    std::vector<std::vector<int>> out(3);
    for (int d = 0; d < 3; ++d) {
      out[d].assign(static_cast<std::size_t>(comm.rank() + d),
                    10 * comm.rank() + d);
    }
    return comm.alltoallv(out);
  };
  simmpi::World world(3);
  world.enable_checksums();
  world.run([&](simmpi::Comm& comm) {
    const int d = comm.rank();
    std::vector<int> want;
    for (int s = 0; s < 3; ++s) {
      want.insert(want.end(), static_cast<std::size_t>(s + d), 10 * s + d);
    }
    EXPECT_EQ(exchange(comm), want);
  });
  world.set_fault_plan(
      simmpi::FaultPlan{}.corrupt(/*rank=*/2, /*at_alltoallv=*/1,
                                  /*src=*/1, /*bit=*/3));
  try {
    world.run([&](simmpi::Comm& comm) { (void)exchange(comm); });
    ADD_FAILURE() << "the damaged box went unflagged";
  } catch (const simmpi::CorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find("link 1 -> 2"), std::string::npos)
        << e.what();
  }
}

TEST(FaultInjection, ConsumedFaultDoesNotRefireOnRetry) {
  // Injector counters are monotonic across run() calls and events latch
  // once fired, so a retry sails past the fault that killed the previous
  // attempt — the contract the checkpoint/restart driver builds on.
  simmpi::World world(3);
  world.set_fault_plan(simmpi::FaultPlan{}.crash(0, 2));
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 for (int i = 0; i < 3; ++i) comm.barrier();
               }),
               simmpi::InjectedCrashError);
  EXPECT_EQ(world.injector()->events_fired(), 1u);
  const std::uint64_t calls_after_crash = world.injector()->collective_calls(0);
  EXPECT_EQ(calls_after_crash, 2u);

  world.run([](simmpi::Comm& comm) {
    for (int i = 0; i < 3; ++i) comm.barrier();
    EXPECT_EQ(comm.allreduce_sum(1), 3);
  });
  EXPECT_EQ(world.injector()->events_fired(), 1u);  // still just the one
  EXPECT_EQ(world.injector()->collective_calls(0), calls_after_crash + 4);
}

TEST(FaultInjection, InjectorCountsAlltoallvSeparately) {
  simmpi::World world(2);
  world.set_fault_plan(simmpi::FaultPlan{});
  world.run([](simmpi::Comm& comm) {
    comm.barrier();
    std::vector<std::vector<int>> out(2);
    (void)comm.alltoallv(out);
    (void)comm.allreduce_sum(1);
    (void)comm.alltoallv(out);
  });
  EXPECT_EQ(world.injector()->collective_calls(0), 4u);
  EXPECT_EQ(world.injector()->alltoallv_calls(0), 2u);
}

TEST(FaultInjection, ClearFaultPlanRemovesInjector) {
  simmpi::World world(2);
  world.set_fault_plan(simmpi::FaultPlan{}.crash(0, 1));
  world.clear_fault_plan();
  EXPECT_EQ(world.injector(), nullptr);
  world.run([](simmpi::Comm& comm) { comm.barrier(); });
}

}  // namespace
