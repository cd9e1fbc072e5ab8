// F8 — Direction-optimization crossover.
//
// Push sends one request per cut edge; pull broadcasts the frontier once
// and each owner scans its own weight-sorted rows, in light rounds and
// heavy phases, stopping at the first edge that cannot win.  Pull wins
// when frontiers are dense relative to the rank count.  This harness
// sweeps the edgefactor (frontier density knob) and reports, for each
// core::Direction (push every round, pull every round that has edges to
// relax, and the engine's own choice), the traffic, the rounds each way
// and the candidates checked (edges scanned by a pull, relaxed by a
// push).  Every row is validated; an invalid one makes the harness exit
// nonzero.
#include <iostream>

#include "bench_util.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int scale = static_cast<int>(options.get_int("scale", 12));
  const int ranks = static_cast<int>(options.get_int("ranks", 8));

  bench::RunReport report("direction", options);
  util::Table table({"edgefactor", "mode", "pull rounds", "push rounds",
                     "wire bytes", "frontier bcast", "candidates",
                     "time (s)", "valid"});
  bool all_valid = true;
  for (const int edgefactor : {4, 8, 16, 32, 64}) {
    graph::KroneckerParams params;
    params.scale = scale;
    params.edgefactor = edgefactor;

    for (const auto direction : {core::Direction::kPush, core::Direction::kPull,
                                 core::Direction::kAuto}) {
      core::SsspConfig config;
      config.direction = direction;
      const auto m = bench::measure_sssp(params, ranks, config);
      all_valid = all_valid && m.valid;
      table.row()
          .add(edgefactor)
          .add(core::direction_name(direction))
          .add(m.stats.pull_rounds)
          .add(m.stats.push_rounds)
          .add_si(static_cast<double>(m.wire_bytes))
          .add_si(static_cast<double>(m.stats.frontier_broadcast))
          .add_si(static_cast<double>(m.stats.relax_generated))
          .add(m.seconds, 4)
          .add(m.valid ? "yes" : "NO");
      util::Json c = util::Json::object();
      c["scale"] = scale;
      c["ranks"] = ranks;
      c["edgefactor"] = edgefactor;
      c["mode"] = core::direction_name(direction);
      c["measurement"] = bench::to_json(m);
      report.add_case(std::move(c));
    }
  }
  table.print(std::cout, "F8: push/pull crossover, Kronecker scale " +
                             std::to_string(scale) + ", " +
                             std::to_string(ranks) + " ranks");
  std::cout << "\nExpected shape: pull rows send fewer wire bytes than push "
               "rows but check the most\ncandidates, since a pulled round "
               "reads every unreached row in full.  The\nauto rows pull at "
               "every edgefactor, in light rounds and in the heavy phases\nof "
               "the buckets that settle much of the graph, and undercut push "
               "wire bytes and\ncandidates at every edgefactor.\n";
  bench::write_report(report, table);
  if (!all_valid) {
    std::cerr << "VALIDATION FAILED: a row's distances are invalid\n";
    return 1;
  }
  return 0;
}
