// perfbench: one workload per process.  Prints one JSON report line on
// standard output (perfbench/run.py turns it into the result line) and
// progress and errors on standard error.
//
//   perfbench --workload g500_kron|serve_rw|ooc_build --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--scratch DIR]
//             [--size full|small]
//             [--kron-seed1 N] [--kron-seed2 N] [--root-seed N]
//             [--query-seed N] [--write-seed N]
#include <iostream>
#include <stdexcept>

#include "common.hpp"

int main(int argc, char** argv) {
  try {
    const perfbench::Options opt = perfbench::parse_options(argc, argv);
    perfbench::Report report;
    if (opt.workload == "g500_kron") {
      report = perfbench::run_g500_kron(opt);
    } else if (opt.workload == "serve_rw") {
      report = perfbench::run_serve_rw(opt);
    } else if (opt.workload == "ooc_build") {
      report = perfbench::run_ooc_build(opt);
    } else {
      throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
    }
    std::cout << report.to_json(opt.workload).dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
