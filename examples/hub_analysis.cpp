// Hub structure analysis: why hub caching works on Graph 500 graphs.
//
// Characterizes a Kronecker graph the way the paper's motivation section
// does: degree distribution (log2 histogram), the traffic share of the
// top-k vertices, the giant-component structure, and the measured hub
// filter rate of an actual SSSP — the chain of facts that justifies
// replicating a few thousand vertices on 40 million cores.
//
//   ./hub_analysis [--scale 14] [--ranks 4]
#include <cstdlib>
#include <iostream>

#include "core/components.hpp"
#include "core/delta_stepping.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"
#include "util/histogram.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  graph::KroneckerParams params;
  params.scale = static_cast<int>(options.get_int("scale", 14));
  const int ranks = static_cast<int>(options.get_int("ranks", 4));

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    graph::BuildOptions build;
    build.hub_count = 1024;
    const graph::DistGraph g = graph::build_kronecker(comm, params, build);

    // --- degree distribution -------------------------------------------
    // Histogram the owned degrees, then merge the per-rank histograms
    // through fixed-width buckets.
    util::Log2Histogram degrees;
    for (graph::LocalId u = 0; u < g.csr.num_local(); ++u) {
      degrees.add(g.csr.degree(u));
    }
    std::vector<std::uint64_t> buckets(64, 0);
    const auto& local = degrees.buckets();
    for (std::size_t i = 0; i < local.size() && i < 64; ++i) {
      buckets[i] = local[i];
    }
    const auto merged = comm.allreduce_vec<std::uint64_t>(
        buckets, [](std::uint64_t a, std::uint64_t b) { return a + b; });

    // --- hub traffic share ----------------------------------------------
    // Fraction of directed edges pointing at the top-k hubs.
    std::vector<double> shares;
    const std::vector<std::size_t> ks = {16, 64, 256, 1024};
    for (const auto k : ks) {
      std::uint64_t covered = 0;
      for (std::size_t i = 0; i < std::min(k, g.hubs.size()); ++i) {
        covered += g.hub_degrees[i];
      }
      shares.push_back(static_cast<double>(covered) /
                       static_cast<double>(g.num_directed_edges));
    }

    // --- components ------------------------------------------------------
    const auto labels = core::connected_components(comm, g);
    const auto components = core::summarize_components(comm, g, labels);

    // --- measured filter rate -------------------------------------------
    core::SsspStats stats;
    (void)core::delta_stepping(comm, g, 1, core::SsspConfig{}, &stats);
    const auto generated = comm.allreduce_sum(stats.relax_generated);
    const auto filtered = comm.allreduce_sum(stats.filtered_hub);

    if (comm.rank() == 0) {
      std::cout << "Scale-" << params.scale << " Kronecker graph: "
                << g.num_vertices << " vertices, " << g.num_directed_edges
                << " directed edges.\n\n";

      std::cout << "Degree distribution (log2 buckets):\n";
      util::Log2Histogram hist;
      for (std::size_t i = 0; i < merged.size(); ++i) {
        if (merged[i] > 0) {
          hist.add(i == 0 ? 0 : (std::uint64_t{1} << i), merged[i]);
        }
      }
      std::cout << hist.to_string() << '\n';

      util::Table share_table({"top-k vertices", "share of all edges"});
      for (std::size_t i = 0; i < ks.size(); ++i) {
        share_table.row()
            .add(static_cast<std::uint64_t>(ks[i]))
            .add(shares[i], 3);
      }
      share_table.print(std::cout, "hub edge coverage");

      std::cout << '\n';
      util::Table comp_table({"structure metric", "value"});
      comp_table.row().add("components").add(components.num_components);
      comp_table.row().add("largest component").add(components.largest_size);
      comp_table.row()
          .add("largest fraction")
          .add(static_cast<double>(components.largest_size) /
                   static_cast<double>(g.num_vertices),
               3);
      comp_table.row().add("isolated vertices").add(
          components.isolated_vertices);
      comp_table.print(std::cout, "connectivity");

      std::cout << "\nMeasured SSSP hub filter: " << filtered << " of "
                << generated << " candidate relaxations ("
                << 100.0 * static_cast<double>(filtered) /
                       static_cast<double>(std::max<std::uint64_t>(1,
                                                                   generated))
                << "%) dropped before the wire.\n";
      std::cout << "\nReading: a ~0.1% vertex prefix covers a large share "
                   "of all edges — replicating\nonly those hubs filters a "
                   "disproportionate share of relaxation traffic.\n";
    }
  });
  return EXIT_SUCCESS;
}
