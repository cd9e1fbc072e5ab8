// ooc_build: repeated out-of-core pipelined builds
// (ooc::build_sharded_kronecker) under a resident budget that forces
// spills.
//
// Why this workload: it is the only one where src/ooc and file I/O do the
// work; the engine and serving are bypassed.
//
// The first build is an untimed warm-up; the measured builds follow it
// and must repeat its exact spill and shard counts.  Set-up then builds
// the in-memory reference graph (graph::build_kronecker's steps): after
// the builds, so that neither the reference nor what the allocator keeps
// of it sits under the pipeline's resident high-water mark.  The last
// build's shards are mapped with graph::load_sharded and must be
// bit-identical to the reference (CSR, pull index, hubs), and one SSSP on
// the mapped graph must pass validation.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>

#include "common.hpp"
#include "core/delta_stepping.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "graph/shard.hpp"
#include "ooc/pipeline.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 2;  // each with a sorter thread beside it

struct Sizes {
  int scale;
  std::size_t min_builds;  ///< fewest measured builds per run
  int setups;              ///< timed set-ups after the untimed warm-up
};
constexpr Sizes kFull{16, 3, 7};
constexpr Sizes kSmall{13, 2, 1};  ///< the self-test's

template <typename T>
bool same(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool same_graph(const graph::DistGraph& a, const graph::DistGraph& b) {
  return a.num_vertices == b.num_vertices &&
         a.num_input_edges == b.num_input_edges &&
         a.num_directed_edges == b.num_directed_edges &&
         same(a.csr.offsets(), b.csr.offsets()) &&
         same(a.csr.adjacency(), b.csr.adjacency()) &&
         same(a.csr.weights(), b.csr.weights()) &&
         same(a.pull.sources(), b.pull.sources()) &&
         same(a.pull.offsets(), b.pull.offsets()) &&
         same(a.pull.destinations(), b.pull.destinations()) &&
         same(a.pull.weights(), b.pull.weights()) && a.hubs == b.hubs &&
         a.hub_degrees == b.hub_degrees;
}

bool same_counts(const ooc::BuildPipelineStats& a,
                 const ooc::BuildPipelineStats& b) {
  return a.runs_spilled == b.runs_spilled &&
         a.spilled_bytes == b.spilled_bytes && a.shard_bytes == b.shard_bytes &&
         a.bin.edges == b.bin.edges && a.pack.edges == b.pack.edges;
}

// Rank-0 record of the measured phase.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> build_s;  ///< barrier to barrier
  std::vector<double> bin_s, sort_s, pack_s;
  ooc::BuildPipelineStats first;
  std::uint64_t peak_resident_bytes = 0;
  std::uint64_t wire_bytes = 0, messages = 0, collectives = 0;  ///< first build
  std::uint64_t failed_builds = 0;
  std::vector<double> build_rss_mib;  ///< high-water mark of each build
  double load_s = 0.0, mapped_sssp_s = 0.0;
  bool identical = false;
  bool mapped_valid = false;
  std::string validation_error;
};

}  // namespace

Report run_ooc_build(const Options& opt) {
  if (opt.scratch_dir.empty()) {
    throw std::invalid_argument("ooc_build needs --scratch DIR");
  }
  const Sizes& size = opt.small ? kSmall : kFull;
  graph::KroneckerParams kp;
  kp.scale = size.scale;
  kp.edgefactor = 16;
  kp.seed1 = opt.seed_for("kron-seed1");
  kp.seed2 = opt.seed_for("kron-seed2");
  const std::uint64_t root_seed = opt.seed_for("root-seed");
  const int ranks = fit_ranks(kRanks, 2);
  ooc::PipelineOptions po;
  po.resident_budget_bytes = std::uint64_t{8} << 20;
  po.chunk_edges = std::uint64_t{1} << 14;
  const std::string shard_dir = opt.scratch_dir + "/shards";
  po.scratch_dir = opt.scratch_dir + "/runs";

  Report rep;
  rep.config["scale"] = kp.scale;
  rep.config["edgefactor"] = kp.edgefactor;
  rep.config["ranks"] = ranks;
  rep.config["budget_bytes_per_rank"] = po.resident_budget_bytes;
  rep.config["chunk_edges"] = po.chunk_edges;
  rep.config["kron_seed1"] = kp.seed1;
  rep.config["kron_seed2"] = kp.seed2;
  rep.config["root_seed"] = root_seed;

  std::vector<Tracer> tracers(static_cast<std::size_t>(ranks),
                              Tracer(opt.trace));
  BuildLog build;
  Measured m;

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const bool lead = comm.rank() == 0;
    Tracer& tr = tracers[static_cast<std::size_t>(comm.rank())];
    Span top(tr, "ooc_build");

    // Builds first, so that no in-memory graph (nor what the allocator
    // keeps of one) sits under the pipeline's resident high-water mark.
    // Build 0 is the untimed warm-up; the mark restarts before every
    // measured build.
    double measured_s = 0.0;
    bool more = true;
    for (std::size_t k = 0; more; ++k) {
      if (lead && k > 0) reset_peak_rss();
      comm.barrier();
      const simmpi::CommStats before = comm.stats();
      util::Timer timer;
      ooc::BuildPipelineStats st;
      {
        Span span(tr, k == 0 ? "warmup" : "ooc.build",
                  static_cast<std::int64_t>(k));
        st = ooc::build_sharded_kronecker(comm, kp, shard_dir, po);
      }
      const simmpi::CommStats& after = comm.stats();
      const std::uint64_t bytes = after.total_bytes() - before.total_bytes();
      const std::uint64_t msgs = after.total_messages() - before.total_messages();
      const std::uint64_t rounds = after.rounds() - before.rounds();
      comm.barrier();
      const double seconds = timer.seconds();
      const std::uint64_t all_bytes = comm.allreduce_sum(bytes);
      const std::uint64_t all_msgs = comm.allreduce_sum(msgs);
      if (lead && k == 0) {
        m.first = st;
        m.wire_bytes = all_bytes;
        m.messages = all_msgs;
        m.collectives = rounds;
      } else if (lead) {
        m.build_rss_mib.push_back(peak_rss_mib());
        m.build_s.push_back(seconds);
        m.bin_s.push_back(st.bin.seconds);
        m.sort_s.push_back(st.sort.seconds);
        m.pack_s.push_back(st.pack.seconds);
        m.peak_resident_bytes =
            std::max(m.peak_resident_bytes, st.peak_resident_bytes);
        if (!same_counts(st, m.first)) ++m.failed_builds;
        measured_s += seconds;
      }
      const bool done =
          lead && k >= size.min_builds && measured_s >= opt.seconds;
      more = !comm.allreduce_or(done);
    }

    // Set-up: the in-memory reference build, untimed warm-up first.
    std::optional<graph::DistGraph> reference;
    for (int i = 0; i <= size.setups; ++i) {
      reference.reset();
      comm.barrier();
      util::Timer timer;
      {
        Span span(tr, i == 0 ? "warmup" : "setup", i);
        reference.emplace(build_kronecker_timed(comm, tr, kp, build));
      }
      comm.barrier();
      const double seconds = timer.seconds();
      if (lead && i > 0) m.setup_s.push_back(seconds);
    }

    // Correctness phase (untimed): the last build's shards against the
    // reference, then one validated SSSP on the mapped graph.
    util::Timer timer;
    graph::DistGraph mapped;
    {
      Span span(tr, "ooc.load");
      mapped = graph::load_sharded(comm, shard_dir);
    }
    comm.barrier();
    if (lead) m.load_s = timer.seconds();
    const bool identical =
        !comm.allreduce_or(!same_graph(mapped, *reference));
    const auto roots = core::sample_roots(comm, mapped, 1, root_seed);
    bool valid = false;
    std::string error = "no search key on the mapped graph";
    if (!roots.empty()) {
      Span span(tr, "ooc.mapped_sssp");
      comm.barrier();
      timer.reset();
      const core::SsspResult r = core::delta_stepping(comm, mapped, roots[0]);
      comm.barrier();
      if (lead) m.mapped_sssp_s = timer.seconds();
      const core::ValidationReport v =
          core::validate_sssp(comm, mapped, roots[0], r);
      valid = v.ok;
      error = v.ok || v.errors.empty() ? "" : v.errors.front();
    }
    if (lead) {
      m.identical = identical;
      m.mapped_valid = valid;
      m.validation_error = error;
    }
  });
  std::filesystem::remove_all(opt.scratch_dir);

  rep.attempted = m.build_s.size();
  rep.failed = m.failed_builds + (m.identical ? 0 : 1);
  if (m.failed_builds > 0) {
    rep.fail(std::to_string(m.failed_builds) +
             " builds differ from the first build's spill/shard counts");
  }
  if (!m.identical) rep.fail("mapped shards differ from the in-memory build");
  if (!m.mapped_valid) {
    rep.fail("SSSP on the mapped graph failed validation: " +
             m.validation_error);
  }

  const double build_ms_p50 = quantile(m.build_s, 0.5) * 1e3;
  rep.metrics["setup_s"] = quantile(m.setup_s, 0.5);
  rep.metrics["peak_rss_mb"] = quantile(m.build_rss_mib, 0.5);
  // Rate of the median build.
  rep.metrics["build_meps"] =
      static_cast<double>(kp.num_edges()) / build_ms_p50 / 1e3;
  rep.metrics["build_ms_p50"] = build_ms_p50;
  rep.samples["setup_s"] = m.setup_s.size();
  rep.samples["build_ms"] = m.build_s.size();

  util::Json& L = rep.layers;
  L["simmpi.wire_bytes"] = m.wire_bytes;
  L["simmpi.messages"] = m.messages;
  L["simmpi.collectives"] = m.collectives;
  L["graph.generate_s"] = quantile(build.generate_s, 0.5);
  L["graph.build_s"] = quantile(build.build_s, 0.5);
  L["graph.build_wire_bytes"] = build.build_wire_bytes;
  L["ooc.bin_s"] = mean(m.bin_s);
  L["ooc.sort_s"] = mean(m.sort_s);
  L["ooc.pack_s"] = mean(m.pack_s);
  L["ooc.runs_spilled"] = m.first.runs_spilled;
  L["ooc.spilled_bytes"] = m.first.spilled_bytes;
  L["ooc.shard_bytes"] = m.first.shard_bytes;
  L["ooc.peak_resident_bytes"] = m.peak_resident_bytes;
  L["ooc.load_s"] = m.load_s;
  L["ooc.mapped_sssp_s"] = m.mapped_sssp_s;

  util::Json& X = rep.exact;
  for (const char* key :
       {"simmpi.wire_bytes", "simmpi.messages", "simmpi.collectives",
        "graph.build_wire_bytes", "ooc.runs_spilled", "ooc.spilled_bytes",
        "ooc.shard_bytes"}) {
    X[key] = L.at(key);
  }
  X["ooc.bin_edges"] = m.first.bin.edges;
  X["ooc.pack_edges"] = m.first.pack.edges;

  rep.attach_trace(opt, tracers);
  return rep;
}

}  // namespace perfbench
