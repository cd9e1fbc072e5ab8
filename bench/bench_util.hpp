// Shared helpers for the experiment harnesses.
//
// Every harness reproduces one table/figure of the (reconstructed)
// evaluation; see DESIGN.md section 4 for the experiment index and
// EXPERIMENTS.md for measured results.
//
// Besides the console table, every harness writes a machine-readable
// BENCH_<name>.json run report (see RunReport below and docs/telemetry.md
// for the schema) so runs can be diffed and regress-gated.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/async_delta_stepping.hpp"
#include "core/bellman_ford.hpp"
#include "core/delta_stepping.hpp"
#include "core/json.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "model/json.hpp"
#include "model/machine.hpp"
#include "model/projection.hpp"
#include "net/costmodel.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/json.hpp"
#include "util/buildinfo.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace g500::bench {

/// Bump on breaking changes to the RunReport or Measurement layout
/// (docs/telemetry.md records the versioning policy).
constexpr int kRunReportSchemaVersion = 1;
constexpr int kMeasurementSchemaVersion = 1;

/// Everything one measured SSSP configuration yields.
struct Measurement {
  double seconds = 0.0;        ///< max over ranks, one SSSP
  double teps = 0.0;           ///< input edges / seconds
  bool valid = false;
  core::SsspStats stats;       ///< aggregated over ranks (global_stats)
  std::uint64_t wire_bytes = 0;      ///< all payload on the wire (solve only)
  std::uint64_t wire_messages = 0;   ///< point-to-point messages implied
  std::uint64_t rounds = 0;          ///< collective rounds of the solve
  /// The sync/async wire split (wire_bytes = collective + p2p): collective
  /// payload vs aggregated parcel payload, and the parcels that carried it.
  std::uint64_t collective_bytes = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t p2p_flushes = 0;     ///< remote parcels deposited
};

/// Measurement -> telemetry object (docs/telemetry.md "measurement").
inline util::Json to_json(const Measurement& m) {
  util::Json j = util::Json::object();
  j["schema_version"] = kMeasurementSchemaVersion;
  j["seconds"] = m.seconds;
  j["teps"] = m.teps;
  j["valid"] = m.valid;
  j["wire_bytes"] = m.wire_bytes;
  j["wire_messages"] = m.wire_messages;
  j["rounds"] = m.rounds;
  j["collective_bytes"] = m.collective_bytes;
  j["p2p_bytes"] = m.p2p_bytes;
  j["p2p_flushes"] = m.p2p_flushes;
  j["sssp_stats"] = core::to_json(m.stats);
  return j;
}

/// One harness invocation's machine-readable report, written as
/// BENCH_<name>.json next to the console output (or into --report-dir /
/// $G500_REPORT_DIR).  Usage:
///
///   bench::RunReport report("headline", options);
///   ...
///   report.add_case(case_json);          // one entry per table row
///   report.doc()["extra"] = ...;         // harness-specific sections
///   bench::write_report(report, table);  // finalize + write + announce
class RunReport {
 public:
  RunReport(std::string name, const util::Options& options)
      : name_(std::move(name)), cases_(util::Json::array()) {
    doc_ = util::Json::object();
    doc_["schema_version"] = kRunReportSchemaVersion;
    doc_["harness"] = name_;
    doc_["manifest"] = util::run_manifest();
    util::Json opts = util::Json::object();
    for (const auto& [key, value] : options.named()) opts[key] = value;
    doc_["options"] = std::move(opts);
    dir_ = options.get("report-dir", "");
    if (dir_.empty()) {
      const char* env = std::getenv("G500_REPORT_DIR");
      dir_ = (env != nullptr && *env != '\0') ? env : ".";
    }
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Root object (schema_version/harness/manifest/options pre-filled).
  [[nodiscard]] util::Json& doc() noexcept { return doc_; }

  /// Append one measured case (typically one console-table row).
  void add_case(util::Json case_object) {
    cases_.push_back(std::move(case_object));
  }

  /// Path this report will be written to.
  [[nodiscard]] std::string path() const {
    return dir_ + "/BENCH_" + name_ + ".json";
  }

  /// Finalize (attach cases and, when given, the console-table echo) and
  /// write BENCH_<name>.json.  Returns the path written.
  std::string write(const util::Table* table = nullptr) {
    doc_["cases"] = std::move(cases_);
    cases_ = util::Json::array();
    if (table != nullptr) doc_["table"] = util::to_json(*table);
    std::filesystem::create_directories(dir_);
    const std::string file = path();
    std::ofstream out(file);
    if (!out) {
      throw std::runtime_error("RunReport: cannot write " + file);
    }
    out << doc_.dump(2) << '\n';
    return file;
  }

 private:
  std::string name_;
  std::string dir_;
  util::Json doc_;
  util::Json cases_;
};

/// The shared harness epilogue: write the report (with the printed table
/// echoed into it) and announce the file on the console.
inline void write_report(RunReport& report, const util::Table* table = nullptr,
                         std::ostream& out = std::cout) {
  const std::string file = report.write(table);
  out << "[telemetry] wrote " << file << "\n";
}

inline void write_report(RunReport& report, const util::Table& table,
                         std::ostream& out = std::cout) {
  write_report(report, &table, out);
}

/// Build a Kronecker graph on `ranks` simulated ranks and run `roots_count`
/// SSSPs with `config`, averaging the measurements.
inline Measurement measure_sssp(const graph::KroneckerParams& params,
                                int ranks, const core::SsspConfig& config,
                                int roots_count = 1,
                                core::Algorithm algorithm =
                                    core::Algorithm::kDeltaStepping,
                                bool validate = true,
                                const graph::BuildOptions& build_opts = {}) {
  simmpi::World world(ranks);
  Measurement m;
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_kronecker(comm, params, build_opts);
    const auto roots =
        core::sample_roots(comm, g, roots_count, core::kRootSeed);

    struct Snap {
      std::uint64_t bytes, messages, rounds, p2p_bytes, p2p_flushes;
    };
    const auto snapshot = [&comm] {
      const auto& s = comm.stats();
      // Aggregate across ranks so the delta is machine-wide traffic.
      return Snap{
          comm.allreduce_sum(s.alltoallv.bytes + s.allgather.bytes +
                             s.allreduce.bytes),
          comm.allreduce_sum(s.alltoallv.messages + s.allgather.messages +
                             s.p2p.messages),
          comm.allreduce_max(s.alltoallv.calls + s.allgather.calls +
                             s.allreduce.calls + s.broadcast.calls +
                             s.barriers),
          comm.allreduce_sum(s.p2p.bytes), comm.allreduce_sum(s.p2p.calls)};
    };
    // A snapshot itself runs five allreduces; measure that once so each
    // bracketed delta below can subtract its own bracket's cost.
    const auto probe0 = snapshot();
    const auto probe1 = snapshot();
    const Snap snap_cost{probe1.bytes - probe0.bytes,
                         probe1.messages - probe0.messages,
                         probe1.rounds - probe0.rounds,
                         probe1.p2p_bytes - probe0.p2p_bytes,
                         probe1.p2p_flushes - probe0.p2p_flushes};

    double seconds = 0.0;
    bool valid = true;  // every root validated, or validation skipped
    core::SsspStats merged;
    Snap wire{0, 0, 0, 0, 0};
    for (const auto root : roots) {
      core::SsspStats local;
      comm.barrier();
      const auto before = snapshot();
      util::Timer timer;
      core::SsspResult mine;
      switch (algorithm) {
        case core::Algorithm::kDeltaStepping:
          mine = core::delta_stepping(comm, g, root, config, &local);
          break;
        case core::Algorithm::kAsyncDeltaStepping:
          mine = core::async_delta_stepping(comm, g, root, config, &local);
          break;
        case core::Algorithm::kBellmanFord:
          mine = core::bellman_ford(comm, g, root, config, &local);
          break;
        case core::Algorithm::kBfs:
          throw std::invalid_argument(
              "measure_sssp covers SSSP engines; use bench_bfs for BFS");
      }
      comm.barrier();
      seconds += comm.allreduce_max(timer.seconds());
      merged.merge(local);
      // Snapshot wire counters per root, before validation runs, so the
      // reported deltas are solve traffic only (validation traffic used to
      // leak into the totals).
      const auto after = snapshot();
      wire.bytes += after.bytes - before.bytes - snap_cost.bytes;
      wire.messages += after.messages - before.messages - snap_cost.messages;
      wire.rounds += after.rounds - before.rounds - snap_cost.rounds;
      wire.p2p_bytes += after.p2p_bytes - before.p2p_bytes -
                        snap_cost.p2p_bytes;
      wire.p2p_flushes += after.p2p_flushes - before.p2p_flushes -
                          snap_cost.p2p_flushes;
      if (validate) {
        const auto verdict = core::validate_sssp(comm, g, root, mine);
        if (comm.rank() == 0 && !verdict.ok) {
          std::cerr << "VALIDATION FAILED: "
                    << (verdict.errors.empty() ? "?" : verdict.errors.front())
                    << "\n";
        }
        valid = valid && verdict.ok;
      }
    }
    const auto total = core::global_stats(comm, merged);
    if (comm.rank() == 0) {
      m.valid = valid;
      m.seconds = seconds / static_cast<double>(roots.size());
      m.teps = static_cast<double>(g.num_input_edges) / m.seconds;
      m.stats = total;
      m.collective_bytes = wire.bytes;
      m.p2p_bytes = wire.p2p_bytes;
      m.p2p_flushes = wire.p2p_flushes;
      m.wire_bytes = wire.bytes + wire.p2p_bytes;
      m.wire_messages = wire.messages;
      m.rounds = wire.rounds;
    }
    comm.barrier();
  });
  return m;
}

/// Price a measurement on a real interconnect.
///
/// The simulated ranks share one host CPU and a zero-cost "network", so
/// wall time alone misrepresents communication-heavy configurations.  This
/// helper combines the measured quantities the way the record-run
/// methodology does: parallel compute ~= wall time / ranks (the ranks are
/// timesliced on one core, so wall ~= summed CPU), plus the measured
/// traffic priced through the commodity-cluster cost model (one rank per
/// node).
inline double modeled_seconds(const Measurement& m, int ranks) {
  const model::Machine machine =
      model::Machine::commodity_cluster(std::max(1, ranks));
  const net::SunwayTopology topo = machine.topology();
  const net::CostModel cost(topo, 1);

  const double compute = m.seconds / std::max(1, ranks);
  net::AlltoallTraffic traffic;
  traffic.total_bytes = static_cast<double>(m.wire_bytes);
  traffic.max_rank_bytes =
      static_cast<double>(m.wire_bytes) / std::max(1, ranks);
  traffic.cross_cut_fraction = 0.5;
  const double bandwidth =
      cost.alltoallv_seconds(traffic, ranks) -
      cost.alltoallv_seconds(net::AlltoallTraffic{}, ranks);
  const double latency =
      static_cast<double>(m.rounds) * cost.allreduce_seconds(16.0, ranks);
  return compute + bandwidth + latency;
}

/// Project a measured configuration to a record-class machine point.
///
/// This is how the paper's ablation is read: each optimization's value is
/// what it does to traffic/rounds *at full machine scale*, where the
/// interconnect binds — not to single-host wall time.  Calibrates the
/// analytic model from this measurement and predicts (target_scale, nodes)
/// on the New Sunway description.
inline model::ProjectionPoint project_record(
    const Measurement& m, const graph::KroneckerParams& params,
    int target_scale = 40, std::int64_t nodes = 13440) {
  model::Calibration cal;
  const auto edges = static_cast<double>(params.num_edges());
  cal.relax_per_input_edge =
      std::max(0.1, static_cast<double>(m.stats.relax_generated) / edges);
  cal.wire_bytes_per_input_edge =
      static_cast<double>(m.wire_bytes) / edges;
  cal.rounds_per_sssp = static_cast<double>(m.rounds);
  cal.calibration_scale = params.scale;
  const model::Projection proj(model::Machine::new_sunway(), cal);
  return proj.predict(target_scale, nodes);
}

}  // namespace g500::bench
