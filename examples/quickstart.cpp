// Quickstart: the smallest complete use of the library.
//
// Builds a scale-12 Graph 500 Kronecker graph across 4 simulated ranks,
// runs one single-source shortest path with the fully-optimized
// delta-stepping engine, validates the result with the official checks and
// prints a short report.
//
//   ./quickstart [--scale N] [--ranks P] [--root V]
#include <cstdlib>
#include <iostream>

#include "core/delta_stepping.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);

  graph::KroneckerParams params;
  params.scale = static_cast<int>(options.get_int("scale", 12));
  params.edgefactor = static_cast<int>(options.get_int("edgefactor", 16));
  params.check();
  const int ranks = static_cast<int>(options.get_int("ranks", 4));
  const auto root = static_cast<graph::VertexId>(options.get_int("root", 1));

  std::cout << "Building scale-" << params.scale << " Kronecker graph on "
            << ranks << " simulated ranks...\n";

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    // 1. Construct the distributed graph (each rank generates its slice).
    const graph::DistGraph g = graph::build_kronecker(comm, params);

    // 2. Run SSSP with all optimizations enabled (the defaults).
    core::SsspStats stats;
    const core::SsspResult mine =
        core::delta_stepping(comm, g, root, core::SsspConfig{}, &stats);

    // 3. Validate with the official Graph 500 result checks.
    const core::ValidationReport report =
        core::validate_sssp(comm, g, root, mine);

    if (comm.rank() == 0) {
      util::Table table({"metric", "value"});
      table.row().add("vertices").add(static_cast<std::uint64_t>(
          g.num_vertices));
      table.row().add("input edges").add(g.num_input_edges);
      table.row().add("root").add(static_cast<std::uint64_t>(root));
      table.row().add("reachable vertices").add(report.reachable);
      table.row().add("validation").add(report.ok ? "PASS" : "FAIL");
      table.row().add("SSSP time (s)").add(stats.total_seconds, 4);
      table.row().add("buckets processed").add(stats.buckets_processed);
      table.row().add("relaxations applied (rank 0)").add(stats.relax_applied);
      table.print(std::cout, "quickstart");
      if (!report.ok) {
        for (const auto& e : report.errors) std::cout << "  " << e << "\n";
      }
    }
    if (!report.ok) throw std::runtime_error("validation failed");
  });

  std::cout << "Done.\n";
  return EXIT_SUCCESS;
}
