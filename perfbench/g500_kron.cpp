// g500_kron: the Graph 500 SSSP protocol (the one core::run_benchmark
// implements), driven from outside so that solves and validation are
// timed apart.
//
// Why this workload: the engine's scan, coalesce, hub-filter, pull and
// heavy-phase code does nearly all the timed work; serving and the
// out-of-core build are bypassed.
//
// The 64 search keys are solved in order and whole passes repeat until
// the measured solve time reaches --seconds (at least min_passes passes).
// A root's solve time is its fastest pass: host interference only ever
// adds time, so the fastest pass is the least disturbed one.  TEPS and the
// percentiles are taken over the 64 roots, as the protocol defines them.
// The first pass validates every root with core::validate_sssp; later
// solves of the same root must reproduce the validated distances and
// parents bit for bit.  The exact counters come from the first pass only,
// so they do not depend on how many passes fit in the run.
#include <algorithm>
#include <optional>

#include "common.hpp"
#include "core/delta_stepping.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;

struct Sizes {
  int scale;
  int roots;
  int setups;  ///< timed set-ups after the untimed warm-up
  std::size_t min_passes;
};
constexpr Sizes kFull{16, 64, 7, 3};
constexpr Sizes kSmall{12, 16, 1, 3};  ///< the self-test's

std::uint64_t result_digest(const core::SsspResult& r) {
  const std::uint64_t h = util::hash_bytes(
      r.dist.data(), r.dist.size() * sizeof(graph::Weight), 1);
  return util::hash_bytes(r.parent.data(),
                          r.parent.size() * sizeof(graph::VertexId), h);
}

// Rank-0 record of the measured phase.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> solve_s;       ///< max over ranks, barrier to barrier
  std::vector<double> root_s;        ///< fastest solve_s of each root
  std::vector<double> validate_s;
  std::vector<double> light_s, heavy_s, unattributed_s;  ///< engine timers
  std::uint64_t first_pass_roots = 0;
  std::uint64_t wire_bytes = 0, messages = 0, collectives = 0;
  core::SsspStats counts;           ///< first pass, summed over roots
  std::uint64_t distance_digest = 0;
  std::uint64_t input_edges = 0, directed_edges = 0;
  std::uint64_t failed = 0;
  std::string first_error;
};

}  // namespace

Report run_g500_kron(const Options& opt) {
  const Sizes& size = opt.small ? kSmall : kFull;
  graph::KroneckerParams kp;
  kp.scale = size.scale;
  kp.edgefactor = 16;
  kp.seed1 = opt.seed_for("kron-seed1");
  kp.seed2 = opt.seed_for("kron-seed2");
  const std::uint64_t root_seed = opt.seed_for("root-seed");
  const int ranks = fit_ranks(kRanks, 1);
  const int num_roots = size.roots;

  Report rep;
  rep.config["scale"] = kp.scale;
  rep.config["edgefactor"] = kp.edgefactor;
  rep.config["ranks"] = ranks;
  rep.config["roots"] = num_roots;
  rep.config["kron_seed1"] = kp.seed1;
  rep.config["kron_seed2"] = kp.seed2;
  rep.config["root_seed"] = root_seed;

  std::vector<Tracer> tracers(static_cast<std::size_t>(ranks),
                              Tracer(opt.trace));
  std::vector<double> rank_busy(static_cast<std::size_t>(ranks), 0.0);
  BuildLog build;
  Measured m;

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const bool lead = comm.rank() == 0;
    Tracer& tr = tracers[static_cast<std::size_t>(comm.rank())];
    Span top(tr, "g500_kron");

    // Set-up: one untimed warm-up (pays the first-touch page faults), then
    // size.setups timed builds; the last one is kept.
    std::optional<graph::DistGraph> g;
    for (int i = 0; i <= size.setups; ++i) {
      g.reset();
      comm.barrier();
      util::Timer timer;
      {
        Span span(tr, i == 0 ? "warmup" : "setup", i);
        g.emplace(build_kronecker_timed(comm, tr, kp, build));
      }
      comm.barrier();
      const double seconds = timer.seconds();
      if (lead && i > 0) m.setup_s.push_back(seconds);
    }

    std::vector<graph::VertexId> roots;
    {
      Span span(tr, "core.sample_roots");
      roots = core::sample_roots(comm, *g, num_roots, root_seed);
    }
    if (lead) {
      m.input_edges = g->num_input_edges;
      m.directed_edges = g->num_directed_edges;
    }
    std::vector<std::uint64_t> validated(roots.size(), 0);
    if (lead) m.root_s.assign(roots.size(), 0.0);
    double measured_s = 0.0;
    bool more = !roots.empty();
    for (std::size_t k = 0; more; ++k) {
      const std::size_t i = k % roots.size();
      const bool first_pass = k < roots.size();

      core::SsspStats local;
      core::SsspResult result;
      comm.barrier();
      const simmpi::CommStats before = comm.stats();
      util::Timer timer;
      {
        Span span(tr, "core.sssp", static_cast<std::int64_t>(i));
        result = core::delta_stepping(comm, *g, roots[i], {}, &local);
      }
      const double busy = timer.seconds();
      const simmpi::CommStats& after = comm.stats();
      const std::uint64_t bytes = after.total_bytes() - before.total_bytes();
      const std::uint64_t msgs = after.total_messages() - before.total_messages();
      const std::uint64_t rounds = after.rounds() - before.rounds();
      comm.barrier();
      const double seconds = comm.allreduce_max(timer.seconds());
      rank_busy[static_cast<std::size_t>(comm.rank())] += busy;

      const core::SsspStats glob = core::global_stats(comm, local);
      const std::uint64_t all_bytes = comm.allreduce_sum(bytes);
      const std::uint64_t all_msgs = comm.allreduce_sum(msgs);

      bool ok = true;
      std::string error;
      const std::uint64_t mine = result_digest(result);
      if (first_pass) {
        Span span(tr, "core.validate", static_cast<std::int64_t>(i));
        util::Timer vt;
        const core::ValidationReport v =
            core::validate_sssp(comm, *g, roots[i], result);
        ok = v.ok;
        if (!ok && !v.errors.empty()) error = v.errors.front();
        if (lead) m.validate_s.push_back(vt.seconds());
        validated[i] = mine;
      } else {
        Span span(tr, "check.repeat", static_cast<std::int64_t>(i));
        ok = !comm.allreduce_or(mine != validated[i]);
        if (!ok) error = "repeat solve differs from the validated result";
      }
      const std::uint64_t all_digest =
          comm.allreduce_sum(first_pass ? mine : std::uint64_t{0});

      if (lead) {
        m.solve_s.push_back(seconds);
        m.root_s[i] = first_pass ? seconds : std::min(m.root_s[i], seconds);
        m.light_s.push_back(glob.light_seconds);
        m.heavy_s.push_back(glob.heavy_seconds);
        m.unattributed_s.push_back(glob.total_seconds - glob.light_seconds -
                                   glob.heavy_seconds);
        if (!ok) {
          ++m.failed;
          if (m.first_error.empty()) {
            m.first_error = "root " + std::to_string(roots[i]) + ": " + error;
          }
        }
        if (first_pass) {
          ++m.first_pass_roots;
          m.wire_bytes += all_bytes;
          m.messages += all_msgs;
          m.collectives += rounds;
          m.counts.merge(glob);
          m.distance_digest = util::hash_bytes(
              &all_digest, sizeof(all_digest), m.distance_digest);
        }
        measured_s += seconds;
      }
      const std::size_t passes = (k + 1) / roots.size();
      const bool done = lead && (k + 1) % roots.size() == 0 &&
                        passes >= size.min_passes && measured_s >= opt.seconds;
      more = !comm.allreduce_or(done);
    }
  });

  rep.attempted = m.solve_s.size();
  rep.failed = m.failed;
  if (m.first_pass_roots == 0) rep.fail("no search keys were sampled");
  if (m.failed > 0) rep.fail(m.first_error);

  // Graph 500 TEPS per root: input edges over the root's solve time; the
  // headline is the harmonic mean over the roots.
  double inv_teps = 0.0;
  std::vector<double> solve_ms;
  for (const double s : m.root_s) {
    inv_teps += s / static_cast<double>(m.input_edges);
    solve_ms.push_back(s * 1e3);
  }
  const auto n = static_cast<double>(solve_ms.size());
  rep.metrics["setup_s"] = quantile(m.setup_s, 0.5);
  rep.metrics["peak_rss_mb"] = peak_rss_mib();
  rep.metrics["teps_hmean"] = inv_teps > 0.0 ? n / inv_teps : 0.0;
  rep.metrics["sssp_ms_p50"] = quantile(solve_ms, 0.5);
  rep.metrics["sssp_ms_p84"] = quantile(solve_ms, 0.84);
  rep.samples["setup_s"] = m.setup_s.size();
  rep.samples["sssp_ms"] = solve_ms.size();
  rep.samples["sssp_ms_p84_beyond"] = samples_beyond(solve_ms.size(), 0.84);
  rep.samples["passes"] =
      m.root_s.empty() ? 0 : m.solve_s.size() / m.root_s.size();

  const double roots_d =
      static_cast<double>(std::max<std::uint64_t>(m.first_pass_roots, 1));
  const core::SsspStats& c = m.counts;
  auto per_root = [&](std::uint64_t total) {
    return static_cast<double>(total) / roots_d;
  };
  double busy_max = 0.0;
  for (const double b : rank_busy) busy_max = std::max(busy_max, b);

  util::Json& L = rep.layers;
  L["simmpi.wire_bytes"] = per_root(m.wire_bytes);
  L["simmpi.messages"] = per_root(m.messages);
  L["simmpi.collectives"] = per_root(m.collectives);
  L["simmpi.rank_skew"] = busy_max / mean(rank_busy);
  L["graph.generate_s"] = quantile(build.generate_s, 0.5);
  L["graph.build_s"] = quantile(build.build_s, 0.5);
  L["graph.build_wire_bytes"] = build.build_wire_bytes;
  L["core.sssp_s"] = mean(m.solve_s);
  L["core.light_s"] = mean(m.light_s);
  L["core.heavy_s"] = mean(m.heavy_s);
  L["core.unattributed_s"] = mean(m.unattributed_s);
  L["core.validate_s"] = mean(m.validate_s);
  L["core.relax_generated"] = per_root(c.relax_generated);
  L["core.relax_sent"] = per_root(c.relax_sent);
  L["core.relax_applied"] = per_root(c.relax_applied);
  L["core.useful_ratio"] =
      c.relax_generated > 0 ? static_cast<double>(c.relax_applied) /
                                  static_cast<double>(c.relax_generated)
                            : 0.0;
  L["core.filtered_coalesce"] = per_root(c.filtered_coalesce);
  L["core.filtered_hub"] = per_root(c.filtered_hub);
  L["core.fused_local"] = per_root(c.fused_local);
  L["core.push_rounds"] = per_root(c.push_rounds);
  L["core.pull_rounds"] = per_root(c.pull_rounds);
  L["core.buckets"] = per_root(c.buckets_processed);
  L["core.light_iterations"] = per_root(c.light_iterations);

  util::Json& X = rep.exact;
  for (const char* key :
       {"simmpi.wire_bytes", "simmpi.messages", "simmpi.collectives",
        "graph.build_wire_bytes", "core.relax_generated", "core.relax_sent",
        "core.relax_applied", "core.useful_ratio", "core.filtered_coalesce",
        "core.filtered_hub", "core.fused_local", "core.push_rounds",
        "core.pull_rounds", "core.buckets", "core.light_iterations"}) {
    X[key] = L.at(key);
  }
  X["graph.input_edges"] = m.input_edges;
  X["graph.directed_edges"] = m.directed_edges;
  X["roots"] = m.first_pass_roots;
  X["distance_digest"] = std::to_string(m.distance_digest);

  rep.attach_trace(opt, tracers);
  return rep;
}

}  // namespace perfbench
