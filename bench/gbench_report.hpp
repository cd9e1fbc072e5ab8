// RunReport bridge for the google-benchmark harnesses (bench_kronecker,
// bench_micro): a console reporter that also captures every run as one
// telemetry case, and a drop-in main() that writes BENCH_<name>.json with
// the same manifest/options envelope as the table harnesses
// (docs/telemetry.md).
#pragma once

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace g500::bench {

/// Prints the normal console output and mirrors each run into JSON cases:
/// {"name", "run_type", "iterations", "real_time", "cpu_time", "time_unit",
///  <user counters, e.g. items_per_second>}.
class CapturingConsoleReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingConsoleReporter(OutputOptions opts)
      : benchmark::ConsoleReporter(opts) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      util::Json c = util::Json::object();
      c["name"] = run.benchmark_name();
      c["run_type"] =
          run.run_type == Run::RT_Aggregate ? "aggregate" : "iteration";
      c["iterations"] = static_cast<std::int64_t>(run.iterations);
      c["real_time"] = run.GetAdjustedRealTime();
      c["cpu_time"] = run.GetAdjustedCPUTime();
      c["time_unit"] = benchmark::GetTimeUnitString(run.time_unit);
      for (const auto& [name, counter] : run.counters) {
        c[name] = static_cast<double>(counter);
      }
      cases_.push_back(std::move(c));
    }
  }

  [[nodiscard]] std::vector<util::Json>& cases() noexcept { return cases_; }

 private:
  std::vector<util::Json> cases_;
};

/// Console options as google-benchmark picks them for its own reporter:
/// tabular, and coloured per --benchmark_color (default "auto", colour on
/// a terminal only).  Read from argv before benchmark::Initialize consumes
/// the flag.
inline benchmark::ConsoleReporter::OutputOptions console_options(int argc,
                                                                 char** argv) {
  const std::string flag = "--benchmark_color";
  std::string value = "auto";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag) value = "true";
    if (arg.rfind(flag + "=", 0) == 0) value = arg.substr(flag.size() + 1);
  }
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const bool color =
      value == "auto" ? isatty(STDOUT_FILENO) != 0
                      : !(value == "false" || value == "0" || value == "f" ||
                          value == "no" || value == "n" || value == "off");
  return color ? benchmark::ConsoleReporter::OO_ColorTabular
               : benchmark::ConsoleReporter::OO_Tabular;
}

/// main() body for a google-benchmark harness: run the registered
/// benchmarks, then write BENCH_<name>.json.  Flags the benchmark library
/// does not recognize (e.g. --report-dir) are left in argv and parsed as
/// harness options.
inline int gbench_main(const std::string& name, int argc, char** argv) {
  CapturingConsoleReporter reporter(console_options(argc, argv));
  benchmark::Initialize(&argc, argv);
  const util::Options options(argc, argv);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  RunReport report(name, options);
  for (auto& c : reporter.cases()) report.add_case(std::move(c));
  write_report(report);
  benchmark::Shutdown();
  return 0;
}

}  // namespace g500::bench
