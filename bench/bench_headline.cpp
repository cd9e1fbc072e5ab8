// T1 — Headline Graph 500 SSSP result.
//
// Runs the official benchmark protocol (sampled roots, per-root validation,
// harmonic-mean TEPS) at a sweep of scales on the simulated ranks — the
// miniature of the paper's record submission table.  Exits 1 when any
// scale's roots fail validation.
#include <iostream>

#include "bench_util.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int ranks = static_cast<int>(options.get_int("ranks", 8));
  const int roots = static_cast<int>(options.get_int("roots", 8));
  const int max_scale = static_cast<int>(options.get_int("max-scale", 16));

  bool all_valid = true;
  bench::RunReport run_report("headline", options);
  util::Table table({"scale", "vertices", "input edges", "ranks", "roots",
                     "valid", "hmean TEPS", "mean time (s)"});
  for (int scale = 12; scale <= max_scale; scale += 2) {
    graph::KroneckerParams params;
    params.scale = scale;
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const graph::DistGraph g = graph::build_kronecker(comm, params);
      core::RunnerOptions opts;
      opts.num_roots = roots;
      const auto report = core::run_benchmark(comm, g, opts);
      if (comm.rank() == 0) {
        all_valid = all_valid && report.all_valid;
        table.row()
            .add(scale)
            .add(static_cast<std::uint64_t>(report.num_vertices))
            .add(report.num_input_edges)
            .add(ranks)
            .add(static_cast<std::uint64_t>(report.runs.size()))
            .add(report.all_valid ? "yes" : "NO")
            .add_si(report.harmonic_mean_teps)
            .add(report.mean_seconds, 4);
        util::Json c = util::Json::object();
        c["scale"] = scale;
        c["ranks"] = ranks;
        c["report"] = core::to_json(report);
        run_report.add_case(std::move(c));
      }
    });
  }
  table.print(std::cout,
              "T1: Graph500 SSSP official protocol (simulated ranks)");
  bench::write_report(run_report, table);
  if (!all_valid) {
    std::cerr << "VALIDATION FAILED: a scale's roots did not validate\n";
    return 1;
  }
  return 0;
}
