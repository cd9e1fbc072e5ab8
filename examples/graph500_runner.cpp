// Full Graph 500 SSSP benchmark CLI — the reproduction's equivalent of the
// official reference runner.
//
//   ./graph500_runner --scale 16 --ranks 8 --roots 64 [--edgefactor 16]
//                     [--algorithm delta|bf] [--delta 0.03]
//                     [--no-validate] [--seed1 2 --seed2 3]
//
// Prints the construction summary, per-root timings, the Graph500-style
// summary block (harmonic-mean TEPS) and the aggregated execution
// statistics.
#include <cstdlib>
#include <iostream>

#include "core/runner.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "simmpi/comm.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  if (options.has("help")) {
    std::cout << "usage: " << options.program()
              << " [--scale N] [--edgefactor K] [--ranks P] [--roots R]\n"
                 "       [--algorithm delta|bf|bfs] [--delta D] "
                 "[--no-validate]\n"
                 "       [--seed1 S] [--seed2 S] [--hubs H]\n"
                 "       [--input FILE.tsv|FILE.bin] [--export-graph FILE]\n";
    return EXIT_SUCCESS;
  }

  graph::KroneckerParams params;
  params.scale = static_cast<int>(options.get_int("scale", 14));
  params.edgefactor = static_cast<int>(options.get_int("edgefactor", 16));
  params.seed1 = static_cast<std::uint64_t>(options.get_int("seed1", 2));
  params.seed2 = static_cast<std::uint64_t>(options.get_int("seed2", 3));
  params.check();
  const int ranks = static_cast<int>(options.get_int("ranks", 8));

  core::RunnerOptions run_opts;
  run_opts.num_roots = static_cast<int>(options.get_int("roots", 16));
  run_opts.validate = !options.get_bool("no-validate", false);
  run_opts.config.delta = options.get_double("delta", 0.0);
  const std::string algorithm = options.get("algorithm", "delta");
  if (algorithm == "bf") {
    run_opts.algorithm = core::Algorithm::kBellmanFord;
  } else if (algorithm == "bfs") {
    run_opts.algorithm = core::Algorithm::kBfs;
  } else {
    run_opts.algorithm = core::Algorithm::kDeltaStepping;
  }

  // Optional external dataset: '.bin' loads the compact binary format,
  // anything else is parsed as TSV.  Without --input, Kronecker is
  // generated per the official benchmark.
  graph::EdgeList external;
  const std::string input = options.get("input", "");
  if (!input.empty()) {
    external = input.size() > 4 && input.ends_with(".bin")
                   ? graph::read_edge_list_binary(input)
                   : graph::read_edge_list_tsv(input);
    std::cout << "Loaded " << external.num_edges() << " edges / "
              << external.num_vertices << " vertices from " << input << "\n";
  }

  graph::BuildOptions build_opts;
  build_opts.hub_count =
      static_cast<std::size_t>(options.get_int("hubs", 1024));

  const std::string export_path = options.get("export-graph", "");
  if (!export_path.empty()) {
    const graph::EdgeList whole =
        external.num_vertices > 0 ? external : graph::kronecker_graph(params);
    if (export_path.ends_with(".bin")) {
      graph::write_edge_list_binary(export_path, whole);
    } else {
      graph::write_edge_list_tsv(export_path, whole);
    }
    std::cout << "Exported " << whole.num_edges() << " edges to "
              << export_path << "\n";
  }

  std::cout << "Graph500 SSSP: scale " << params.scale << ", edgefactor "
            << params.edgefactor << ", " << ranks << " simulated ranks, "
            << run_opts.num_roots << " roots\n\n";

  simmpi::World world(ranks);
  int exit_code = EXIT_SUCCESS;
  world.run([&](simmpi::Comm& comm) {
    comm.barrier();
    util::Timer construct;
    const graph::DistGraph g =
        external.num_vertices > 0
            ? graph::build_distributed(
                  comm,
                  graph::slice_for_rank(external, comm.rank(), comm.size()),
                  external.num_vertices, build_opts)
            : graph::build_kronecker(comm, params, build_opts);
    comm.barrier();
    const double construction = comm.allreduce_max(construct.seconds());

    const auto report = core::run_benchmark(comm, g, run_opts);

    if (comm.rank() == 0) {
      util::Table graph_table({"construction metric", "value"});
      graph_table.row().add("time (s)").add(construction, 3);
      graph_table.row().add("directed edges").add(g.num_directed_edges);
      graph_table.row()
          .add("construction MEPS")
          .add_si(static_cast<double>(g.num_input_edges) / construction);
      graph_table.row().add("hubs tracked").add(
          static_cast<std::uint64_t>(g.hubs.size()));
      if (!g.hub_degrees.empty()) {
        graph_table.row().add("max degree").add(g.hub_degrees.front());
      }
      graph_table.print(std::cout, "construction");
      std::cout << '\n';

      util::Table roots_table({"root", "time (s)", "TEPS", "reachable",
                               "valid"});
      for (const auto& run : report.runs) {
        roots_table.row()
            .add(static_cast<std::uint64_t>(run.root))
            .add(run.seconds, 4)
            .add_si(run.teps)
            .add(run.reachable)
            .add(run.valid ? "yes" : "NO");
      }
      roots_table.print(std::cout, "per-root results");
      std::cout << '\n';

      report.print(std::cout);
      std::cout << '\n';

      util::Table stats_table({"execution metric", "value"});
      const auto& s = report.stats;
      stats_table.row().add("buckets").add(s.buckets_processed);
      stats_table.row().add("light rounds").add(s.light_iterations);
      stats_table.row().add("push rounds").add(s.push_rounds);
      stats_table.row().add("pull rounds").add(s.pull_rounds);
      stats_table.row().add("relax generated").add_si(
          static_cast<double>(s.relax_generated));
      stats_table.row().add("relax applied").add_si(
          static_cast<double>(s.relax_applied));
      stats_table.row().add("hub-filtered").add_si(
          static_cast<double>(s.filtered_hub));
      stats_table.row().add("coalesce-filtered").add_si(
          static_cast<double>(s.filtered_coalesce));
      stats_table.row().add("fused locally").add_si(
          static_cast<double>(s.fused_local));
      stats_table.print(std::cout, "aggregated execution statistics");

      if (!report.all_valid) {
        std::cerr << "\nERROR: at least one root failed validation\n";
      }
    }
    if (!report.all_valid) exit_code = EXIT_FAILURE;
  });
  return exit_code;
}
