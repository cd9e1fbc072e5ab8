// F2 — Weak scaling: the graph grows with the machine.
//
// scale = base + log2(ranks): each rank keeps a constant share of edges,
// mirroring how the record entry filled the machine.  The figure of merit
// is TEPS per rank (flat = perfect weak scaling) plus the traffic metrics
// that the projection model extrapolates from.
//
// --ooc adds the out-of-core demonstration (docs/out_of_core.md): first a
// bit-identity gate (pipelined sharded build vs in-memory build: CSR
// arrays, hubs and SSSP distances must match byte for byte), then a scale
// step under a resident-memory cap the in-memory builder provably cannot
// satisfy, run entirely from mmap'd shards.  Any gate failure exits
// non-zero — this is the regression harness for src/ooc.
#include <cstring>
#include <filesystem>
#include <iostream>

#include "bench_util.hpp"
#include "core/graph_view.hpp"
#include "graph/shard.hpp"
#include "ooc/pipeline.hpp"
#include "util/options.hpp"

namespace {

using namespace g500;

template <typename T>
bool spans_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Byte-compare every array the two graphs expose to the engines.
bool graphs_identical(const graph::DistGraph& a, const graph::DistGraph& b) {
  return spans_equal(a.csr.offsets(), b.csr.offsets()) &&
         spans_equal(a.csr.adjacency(), b.csr.adjacency()) &&
         spans_equal(a.csr.weights(), b.csr.weights()) &&
         spans_equal(a.pull.sources(), b.pull.sources()) &&
         spans_equal(a.pull.offsets(), b.pull.offsets()) &&
         spans_equal(a.pull.destinations(), b.pull.destinations()) &&
         spans_equal(a.pull.weights(), b.pull.weights()) &&
         a.hubs == b.hubs && a.hub_degrees == b.hub_degrees &&
         a.num_input_edges == b.num_input_edges &&
         a.num_directed_edges == b.num_directed_edges;
}

bool results_identical(const core::SsspResult& a, const core::SsspResult& b) {
  return a.dist.size() == b.dist.size() &&
         (a.dist.empty() ||
          std::memcmp(a.dist.data(), b.dist.data(),
                      a.dist.size() * sizeof(graph::Weight)) == 0);
}

/// The --ooc phase.  Returns 0 when every gate holds.
int run_ooc_phase(const util::Options& options, bench::RunReport& report,
                  int base_scale, int roots) {
  namespace fs = std::filesystem;
  const int ranks = static_cast<int>(options.get_int("ooc-ranks", 4));
  const int cap_scale =
      static_cast<int>(options.get_int("ooc-scale", base_scale + 3));
  const std::uint64_t cap_bytes = static_cast<std::uint64_t>(
      options.get_int("ooc-budget-kb", 2048)) * 1024;
  const std::uint64_t chunk_edges =
      static_cast<std::uint64_t>(options.get_int("ooc-chunk-edges", 4096));
  std::string dir = options.get("ooc-dir", "");
  if (dir.empty()) {
    dir = (fs::temp_directory_path() / "g500_ooc_weak_scaling").string();
  }
  fs::remove_all(dir);

  util::Json ooc = util::Json::object();
  bool identical = false;
  bool cap_valid = false;
  bool under_cap = false;
  bool infeasible_in_memory = false;

  // Gate 1: bit identity at the base scale — shards written by the
  // pipeline must reproduce the in-memory build exactly, down to the SSSP
  // distance bits.
  {
    graph::KroneckerParams params;
    params.scale = base_scale;
    ooc::PipelineOptions popts;
    popts.chunk_edges = chunk_edges;
    popts.scratch_dir = dir + "/identity";
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const graph::DistGraph g_mem = graph::build_kronecker(comm, params);
      const auto pstats = ooc::build_sharded_kronecker(
          comm, params, dir + "/identity", popts);
      const graph::DistGraph g_map =
          graph::load_sharded(comm, dir + "/identity");
      bool same = graphs_identical(g_mem, g_map) &&
                  g_map.backing == graph::GraphBacking::kMapped;
      const auto sample =
          core::sample_roots(comm, g_mem, roots, core::kRootSeed);
      for (const auto root : sample) {
        const auto a = core::delta_stepping(comm, g_mem, root, {});
        const auto b = core::delta_stepping(comm, g_map, root, {});
        same = same && results_identical(a, b);
      }
      const bool all_same = !comm.allreduce_or(!same);
      if (comm.rank() == 0) {
        identical = all_same;
        ooc["identity"] = util::Json::object();
        ooc["identity"]["scale"] = params.scale;
        ooc["identity"]["ranks"] = ranks;
        ooc["identity"]["roots"] = static_cast<std::int64_t>(sample.size());
        ooc["identity"]["bit_identical"] = all_same;
        ooc["identity"]["build_pipeline"] = ooc::to_json(pstats);
      }
      comm.barrier();
    });
  }

  // Gate 2: one scale step under a resident cap the in-memory build
  // cannot satisfy.  The pipeline itself throws if it overruns the cap;
  // the mapped graph then serves a validated SSSP.
  {
    graph::KroneckerParams params;
    params.scale = cap_scale;
    const std::uint64_t estimate =
        core::estimate_inmemory_build_bytes(params, ranks);
    infeasible_in_memory = estimate > cap_bytes;
    ooc::PipelineOptions popts;
    popts.resident_budget_bytes = cap_bytes;
    popts.chunk_edges = chunk_edges;
    popts.scratch_dir = dir + "/cap";
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const auto pstats = ooc::build_sharded_kronecker(
          comm, params, dir + "/cap", popts);
      const graph::DistGraph g = graph::load_sharded(comm, dir + "/cap");
      const auto residency = core::graph_residency(g);
      const auto sample = core::sample_roots(comm, g, 1, core::kRootSeed);
      bool ok = true;
      util::Timer timer;
      const auto result = core::delta_stepping(comm, g, sample.front(), {});
      const double seconds = comm.allreduce_max(timer.seconds());
      const auto verdict = core::validate_sssp(comm, g, sample.front(), result);
      ok = verdict.ok &&
           residency.backing == graph::GraphBacking::kMapped &&
           residency.resident_bytes == 0;
      const bool all_ok = !comm.allreduce_or(!ok);
      if (comm.rank() == 0) {
        cap_valid = all_ok;
        under_cap = pstats.peak_resident_bytes <= cap_bytes;
        ooc["cap_step"] = util::Json::object();
        ooc["cap_step"]["scale"] = params.scale;
        ooc["cap_step"]["ranks"] = ranks;
        ooc["cap_step"]["cap_bytes"] = cap_bytes;
        ooc["cap_step"]["inmemory_estimate_bytes"] = estimate;
        ooc["cap_step"]["infeasible_in_memory"] = infeasible_in_memory;
        ooc["cap_step"]["peak_resident_bytes"] = pstats.peak_resident_bytes;
        ooc["cap_step"]["under_cap"] = under_cap;
        ooc["cap_step"]["sssp_seconds"] = seconds;
        ooc["cap_step"]["sssp_teps"] =
            static_cast<double>(g.num_input_edges) / seconds;
        ooc["cap_step"]["valid"] = all_ok;
        ooc["cap_step"]["residency"] = core::to_json(residency);
        ooc["cap_step"]["build_pipeline"] = ooc::to_json(pstats);
      }
      comm.barrier();
    });
  }
  fs::remove_all(dir);

  const bool pass =
      identical && cap_valid && under_cap && infeasible_in_memory;
  report.doc()["ooc"] = std::move(ooc);
  std::cout << "\nOOC gates: bit-identity "
            << (identical ? "PASS" : "FAIL")
            << ", in-memory infeasible under cap "
            << (infeasible_in_memory ? "PASS" : "FAIL")
            << ", pipeline under cap " << (under_cap ? "PASS" : "FAIL")
            << ", mapped SSSP valid " << (cap_valid ? "PASS" : "FAIL")
            << "\n";
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int base_scale = static_cast<int>(options.get_int("base-scale", 12));
  const int roots = static_cast<int>(options.get_int("roots", 2));

  bench::RunReport report("weak_scaling", options);
  util::Table table({"ranks", "scale", "input edges", "time (s)", "TEPS",
                     "bytes/edge", "rounds", "valid"});
  for (int doubling = 0; doubling <= 5; ++doubling) {
    const int ranks = 1 << doubling;
    graph::KroneckerParams params;
    params.scale = base_scale + doubling;
    const auto m = bench::measure_sssp(params, ranks, core::SsspConfig{},
                                       roots);
    table.row()
        .add(ranks)
        .add(params.scale)
        .add(params.num_edges())
        .add(m.seconds, 4)
        .add_si(m.teps)
        .add(static_cast<double>(m.wire_bytes) /
                 static_cast<double>(params.num_edges()),
             3)
        .add(m.rounds)
        .add(m.valid ? "yes" : "NO");
    util::Json c = util::Json::object();
    c["scale"] = params.scale;
    c["ranks"] = ranks;
    c["input_edges"] = params.num_edges();
    c["bytes_per_edge"] = static_cast<double>(m.wire_bytes) /
                          static_cast<double>(params.num_edges());
    c["measurement"] = bench::to_json(m);
    report.add_case(std::move(c));
  }
  table.print(std::cout, "F2: weak scaling (scale grows with ranks)");

  int exit_code = 0;
  if (options.get_bool("ooc", false)) {
    try {
      exit_code = run_ooc_phase(options, report, base_scale, roots);
    } catch (const std::exception& e) {
      std::cerr << "OOC phase failed: " << e.what() << "\n";
      exit_code = 1;
    }
  }
  bench::write_report(report, table);
  std::cout << "\nExpected shape: bytes/edge stays bounded (hub+coalesce "
               "filtering), rounds grow\nslowly (~ +1 bucket per scale), so "
               "modeled weak scaling is near-flat.\n";
  return exit_code;
}
