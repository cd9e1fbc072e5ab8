// F3 — Optimization ablation.
//
// Cumulative build-up from distributed Bellman-Ford and plain delta-
// stepping to the fully-optimized engine: coalescing -> local fusion ->
// hub caching -> direction switching.  Reports wall time, candidate
// requests routed through the exchange, wire bytes and synchronization
// rounds — the four quantities each optimization targets.
#include <iostream>

#include "bench_util.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int scale = static_cast<int>(options.get_int("scale", 15));
  const int ranks = static_cast<int>(options.get_int("ranks", 8));
  const int roots = static_cast<int>(options.get_int("roots", 2));

  graph::KroneckerParams params;
  params.scale = scale;

  struct Step {
    std::string name;
    core::Algorithm algorithm;
    core::SsspConfig config;
  };
  std::vector<Step> steps;
  steps.push_back({"bellman-ford", core::Algorithm::kBellmanFord,
                   core::SsspConfig::plain()});
  steps.push_back({"delta plain", core::Algorithm::kDeltaStepping,
                   core::SsspConfig::plain()});
  {
    core::SsspConfig c = core::SsspConfig::plain();
    c.coalesce = true;
    steps.push_back({"+coalesce", core::Algorithm::kDeltaStepping, c});
    c.local_fusion = true;
    steps.push_back({"+fusion", core::Algorithm::kDeltaStepping, c});
    c.hub_cache = true;
    steps.push_back({"+hub cache", core::Algorithm::kDeltaStepping, c});
    c.direction = core::Direction::kAuto;
    steps.push_back({"+direction (full)", core::Algorithm::kDeltaStepping, c});
  }

  bench::RunReport report("ablation", options);
  util::Table table({"configuration", "wall (s)", "relax sent", "wire bytes",
                     "rounds", "GTEPS@40", "speedup@40", "valid"});
  double plain_gteps = 0.0;
  for (const auto& step : steps) {
    const auto m = bench::measure_sssp(params, ranks, step.config, roots,
                                       step.algorithm, /*validate=*/false);
    // Price this configuration at record scale (scale 40, 13440 Sunway
    // nodes), where the interconnect binds: the regime the paper's
    // ablation speaks to.
    const auto at_scale = bench::project_record(m, params);
    if (step.name == "delta plain") plain_gteps = at_scale.gteps;
    table.row()
        .add(step.name)
        .add(m.seconds, 4)
        .add_si(static_cast<double>(m.stats.relax_sent))
        .add_si(static_cast<double>(m.wire_bytes))
        .add(m.rounds)
        .add(at_scale.gteps, 1)
        .add(plain_gteps > 0.0 ? at_scale.gteps / plain_gteps : 0.0, 2)
        .add(m.valid ? "yes" : "NO");
    util::Json c = util::Json::object();
    c["configuration"] = step.name;
    c["scale"] = scale;
    c["ranks"] = ranks;
    c["config"] = core::to_json(step.config);
    c["projection_at_40"] = model::to_json(at_scale);
    c["speedup_at_40"] =
        plain_gteps > 0.0 ? at_scale.gteps / plain_gteps : 0.0;
    c["measurement"] = bench::to_json(m);
    report.add_case(std::move(c));
  }
  table.print(std::cout, "F3: optimization ablation, Kronecker scale " +
                             std::to_string(scale) + ", " +
                             std::to_string(ranks) + " ranks");
  std::cout << "\nExpected shape: each delta-stepping row sends fewer "
               "requests/bytes than the one\nabove; priced at record scale "
               "(GTEPS@40 = projected scale-40 run on 13440 Sunway\nnodes, "
               "where the network binds) the optimizations compound into "
               "the paper's\ncumulative speedup.  speedup@40 is relative "
               "to 'delta plain'.\n";
  bench::write_report(report, table);
  return 0;
}
