// F9 (extension) — Graph 500 BFS kernel.
//
// The SSSP record builds on the group's 281-trillion-edge BFS work; this
// harness runs the direction-optimizing BFS on the same substrate: GTEPS
// per scale, and the direction-optimization payoff (edges scanned
// top-down every round, bottom-up every round and by Beamer's switch).
#include <iostream>

#include "bench_util.hpp"
#include "core/bfs.hpp"
#include "core/runner.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int ranks = static_cast<int>(options.get_int("ranks", 8));
  const int max_scale = static_cast<int>(options.get_int("max-scale", 16));

  bench::RunReport report("bfs", options);
  util::Table table({"scale", "mode", "rounds", "bottom-up", "edges scanned",
                     "time (s)", "GTEPS", "valid"});
  for (int scale = 12; scale <= max_scale; scale += 2) {
    graph::KroneckerParams params;
    params.scale = scale;
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const graph::DistGraph g = graph::build_kronecker(comm, params);
      const auto roots = core::sample_roots(comm, g, 2, core::kRootSeed);
      for (const auto direction : {core::Direction::kPush,
                                   core::Direction::kPull,
                                   core::Direction::kAuto}) {
        core::BfsConfig config;
        config.direction = direction;
        const char* mode = direction == core::Direction::kPush ? "top-down"
                           : direction == core::Direction::kPull
                               ? "bottom-up"
                               : "auto";
        double seconds = 0.0;
        core::BfsStats accumulated;
        bool valid = true;
        for (const auto root : roots) {
          core::BfsStats stats;
          comm.barrier();
          util::Timer timer;
          const auto mine = core::bfs(comm, g, root, config, &stats);
          comm.barrier();
          seconds += comm.allreduce_max(timer.seconds());
          accumulated.rounds += stats.rounds;
          accumulated.bottom_up_rounds += stats.bottom_up_rounds;
          accumulated.edges_scanned +=
              comm.allreduce_sum(stats.edges_scanned);
          valid = valid && core::validate_bfs(comm, g, root, mine).ok;
        }
        seconds /= static_cast<double>(roots.size());
        if (comm.rank() == 0) {
          table.row()
              .add(scale)
              .add(mode)
              .add(accumulated.rounds / roots.size())
              .add(accumulated.bottom_up_rounds / roots.size())
              .add_si(static_cast<double>(accumulated.edges_scanned) /
                      static_cast<double>(roots.size()))
              .add(seconds, 4)
              .add(static_cast<double>(g.num_input_edges) / seconds / 1e9, 4)
              .add(valid ? "yes" : "NO");
          util::Json c = util::Json::object();
          c["scale"] = scale;
          c["ranks"] = ranks;
          c["mode"] = mode;
          c["rounds"] = accumulated.rounds / roots.size();
          c["bottom_up_rounds"] = accumulated.bottom_up_rounds / roots.size();
          c["edges_scanned"] = static_cast<double>(accumulated.edges_scanned) /
                               static_cast<double>(roots.size());
          c["seconds"] = seconds;
          c["gteps"] =
              static_cast<double>(g.num_input_edges) / seconds / 1e9;
          c["valid"] = valid;
          report.add_case(std::move(c));
        }
      }
    });
  }
  table.print(std::cout, "F9: Graph500 BFS kernel (direction optimization)");
  std::cout << "\nExpected shape: auto rows scan a fraction of the top-down "
               "edges on power-law\ngraphs (the Beamer effect) at equal "
               "validity; bottom-up rows scan the most,\nsince every "
               "unvisited vertex reads its row while the frontier is "
               "sparse.\n";
  bench::write_report(report, table);
  return 0;
}
