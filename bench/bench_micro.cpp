// Kernel microbenchmarks (google-benchmark): the per-edge costs the
// projection model is calibrated against, measured in isolation.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "gbench_report.hpp"

#include "core/bucket_queue.hpp"
#include "core/delta_stepping.hpp"
#include "core/dijkstra.hpp"
#include "core/relax.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "dyn/mutable_graph.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "simmpi/comm.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x = util::mix64(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Mix64);

void BM_BucketQueueChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::SplitMix64 rng(1);
  for (auto _ : state) {
    core::BucketQueue q(n);
    for (std::size_t i = 0; i < n; ++i) {
      q.update(static_cast<LocalId>(i), rng.next_below(64));
    }
    std::uint64_t b = 0;
    while ((b = q.next_nonempty(b)) != core::BucketQueue::kNone) {
      benchmark::DoNotOptimize(q.extract(b));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BucketQueueChurn)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

template <typename Msg>
void BM_CoalesceMin(benchmark::State& state) {
  // The per-round cost of message coalescing: the engines' coalesce_min
  // on one destination's box of requests.  Wide records draw targets from
  // n/4 global ids (~4x duplication); packed ones, as the engine ships
  // them, draw owner-local targets from one owner's whole block: 2^14
  // vertices, a scale-16 graph on 4 ranks.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::SplitMix64 rng(2);
  std::vector<Msg> base(n);
  for (auto& r : base) {
    if constexpr (std::is_same_v<Msg, core::PackedRelaxRequest>) {
      r.target_local = static_cast<std::uint32_t>(rng.next_below(1 << 14));
      r.parent = static_cast<std::uint32_t>(rng.next_below(n));
    } else {
      r.target = rng.next_below(n / 4 + 1);
      r.parent = rng.next_below(n);
    }
    r.dist = static_cast<float>(rng.next_double());
  }
  for (auto _ : state) {
    auto box = base;
    benchmark::DoNotOptimize(core::coalesce_min(box));
    benchmark::DoNotOptimize(box.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_TEMPLATE(BM_CoalesceMin, core::RelaxRequest)
    ->Arg(1 << 12)->Arg(1 << 16);
BENCHMARK_TEMPLATE(BM_CoalesceMin, core::PackedRelaxRequest)
    ->Arg(1 << 12)->Arg(1 << 16);

void BM_CsrConstruction(benchmark::State& state) {
  const auto n = static_cast<LocalId>(state.range(0));
  util::SplitMix64 rng(3);
  std::vector<WireEdge> base(static_cast<std::size_t>(n) * 16);
  for (auto& e : base) {
    e.src = static_cast<VertexId>(rng.next_below(n));
    e.dst = rng.next_below(n);
    e.weight = static_cast<float>(rng.next_double());
  }
  for (auto _ : state) {
    auto edges = base;
    benchmark::DoNotOptimize(LocalCsr(n, std::move(edges)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.size()));
}
BENCHMARK(BM_CsrConstruction)->Arg(1 << 10)->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

void BM_CommitBatch(benchmark::State& state) {
  // What one MutableGraph commit costs: a scale-14 Kronecker graph on 2
  // ranks takes batches of 16 random inserts plus 8 deletes of earlier
  // inserts, the write batch of perfbench's serve_rw.  Manual time: only
  // commit_batch is timed, from a barrier to its return on rank 0, and
  // neither the build nor the staging is.
  constexpr int kRanks = 2;
  constexpr int kInserts = 16;
  constexpr int kDeletes = 8;
  KroneckerParams params;
  params.scale = 14;
  simmpi::World world(kRanks);
  std::vector<std::optional<dyn::MutableGraph>> mg(kRanks);
  world.run([&](simmpi::Comm& comm) {
    mg[static_cast<std::size_t>(comm.rank())].emplace(
        comm, build_kronecker(comm, params));
  });
  dyn::MutableGraph& lead = *mg[0];
  const VertexId n = params.num_vertices();
  util::SplitMix64 rng(5);
  std::vector<std::pair<VertexId, VertexId>> live;
  for (auto _ : state) {
    for (int d = 0; d < kDeletes && !live.empty(); ++d) {
      const std::size_t j = rng.next_below(live.size());
      lead.stage_delete(live[j].first, live[j].second);
      live[j] = live.back();
      live.pop_back();
    }
    for (int k = 0; k < kInserts; ++k) {
      live.emplace_back(rng.next_below(n), rng.next_below(n));
      lead.stage_insert(live.back().first, live.back().second,
                        static_cast<Weight>(rng.next_double()));
    }
    double seconds = 0.0;
    world.run([&](simmpi::Comm& comm) {
      comm.barrier();
      const util::Timer timer;
      benchmark::DoNotOptimize(
          mg[static_cast<std::size_t>(comm.rank())]->commit_batch());
      if (comm.rank() == 0) seconds = timer.seconds();
    });
    state.SetIterationTime(seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (kInserts + kDeletes));
}
BENCHMARK(BM_CommitBatch)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_ValidateSssp(benchmark::State& state) {
  // What checking one Graph 500 search key costs: validate_sssp on a
  // scale-14 Kronecker graph over 4 ranks.  The graph and one sampled
  // root's result are built once.  Manual time: one validation, from a
  // barrier to its return on rank 0; one item per edge it checks.
  constexpr int kRanks = 4;
  KroneckerParams params;
  params.scale = 14;
  simmpi::World world(kRanks);
  std::vector<std::optional<DistGraph>> graphs(kRanks);
  std::vector<core::SsspResult> results(kRanks);
  VertexId root = 0;
  world.run([&](simmpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    graphs[r].emplace(build_kronecker(comm, params));
    const VertexId key = core::sample_roots(comm, *graphs[r], 1, 1).front();
    results[r] = core::delta_stepping(comm, *graphs[r], key);
    if (comm.rank() == 0) root = key;
  });
  core::ValidationReport report;
  for (auto _ : state) {
    double seconds = 0.0;
    world.run([&](simmpi::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      comm.barrier();
      const util::Timer timer;
      auto mine = core::validate_sssp(comm, *graphs[r], root, results[r]);
      benchmark::DoNotOptimize(mine.edges_checked);
      if (comm.rank() == 0) {
        seconds = timer.seconds();
        report = std::move(mine);
      }
    });
    state.SetIterationTime(seconds);
  }
  if (!report.ok) state.SkipWithError("validate_sssp rejected the result");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(report.edges_checked));
}
BENCHMARK(BM_ValidateSssp)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_DeltaStepping(benchmark::State& state) {
  // What one engine solve costs: delta_stepping with the default switches
  // on a scale-14 Kronecker graph over 4 ranks, cycling through 16 sampled
  // roots.  The graph is built once.  Manual time: one solve, from a
  // barrier to its return on rank 0; one item per input edge.
  constexpr int kRanks = 4;
  constexpr int kRoots = 16;
  KroneckerParams params;
  params.scale = 14;
  simmpi::World world(kRanks);
  std::vector<std::optional<DistGraph>> graphs(kRanks);
  std::vector<VertexId> roots;
  world.run([&](simmpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    graphs[r].emplace(build_kronecker(comm, params));
    auto keys = core::sample_roots(comm, *graphs[r], kRoots, 1);
    if (comm.rank() == 0) roots = std::move(keys);
  });
  std::size_t next = 0;
  bool valid = true;
  for (auto _ : state) {
    const VertexId root = roots[next++ % roots.size()];
    double seconds = 0.0;
    world.run([&](simmpi::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      comm.barrier();
      const util::Timer timer;
      const auto mine = core::delta_stepping(comm, *graphs[r], root);
      benchmark::DoNotOptimize(mine.dist.data());
      if (comm.rank() == 0) seconds = timer.seconds();
      if (next <= roots.size()) {  // check each root's first solve, untimed
        const bool ok = core::validate_sssp(comm, *graphs[r], root, mine).ok;
        if (comm.rank() == 0) valid = valid && ok;
      }
    });
    state.SetIterationTime(seconds);
  }
  if (!valid) state.SkipWithError("validate_sssp rejected a solve");
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(graphs[0]->num_input_edges));
}
BENCHMARK(BM_DeltaStepping)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_DeltaSplitBuild(benchmark::State& state) {
  // What a graph's first solve at a delta adds: every rank derives its
  // graph::DeltaSplit, on BM_DeltaStepping's graph (scale 14, 4 ranks) at
  // the automatic delta.  Later solves at that delta reuse the memoized
  // split, so BM_DeltaStepping never times this.  Manual time: one
  // derivation per rank, from a barrier to rank 0's return; one item per
  // edge of rank 0's rows, and `split_bytes` is the size of its split.
  constexpr int kRanks = 4;
  KroneckerParams params;
  params.scale = 14;
  simmpi::World world(kRanks);
  std::vector<std::optional<DistGraph>> graphs(kRanks);
  world.run([&](simmpi::Comm& comm) {
    graphs[static_cast<std::size_t>(comm.rank())].emplace(
        build_kronecker(comm, params));
  });
  const auto width = static_cast<Weight>(core::auto_delta(*graphs[0]));
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    double seconds = 0.0;
    world.run([&](simmpi::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      comm.barrier();
      const util::Timer timer;
      const DeltaSplit split(graphs[r]->csr, width);
      benchmark::DoNotOptimize(split.light_dst.data());
      if (comm.rank() == 0) {
        seconds = timer.seconds();
        bytes = split.bytes();
      }
    });
    state.SetIterationTime(seconds);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(graphs[0]->csr.num_edges()));
  state.counters["split_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_DeltaSplitBuild)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_SequentialDijkstra(benchmark::State& state) {
  const EdgeList g =
      random_graph(static_cast<VertexId>(state.range(0)),
                   static_cast<std::uint64_t>(state.range(0)) * 8, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dijkstra(g, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SequentialDijkstra)->Arg(1 << 12)->Arg(1 << 15)
    ->Unit(benchmark::kMillisecond);

void BM_AllreduceMin(benchmark::State& state) {
  // What one collective costs the simulated ranks: each iteration is one
  // World::run of 1,000 allreduce_min calls, one item per collective.  A
  // world with more ranks than the host has CPUs shows what sharing them
  // costs.
  constexpr int kCalls = 1000;
  simmpi::World world(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    world.run([](simmpi::Comm& comm) {
      std::uint64_t acc = 0;
      for (int i = 0; i < kCalls; ++i) {
        acc += comm.allreduce_min<std::uint64_t>(
            static_cast<std::uint64_t>(comm.rank() + i));
      }
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kCalls);
}
BENCHMARK(BM_AllreduceMin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return g500::bench::gbench_main("micro", argc, argv);
}
