// Golden-schema tests for the machine-readable telemetry layer: the
// BENCH_<name>.json run-report envelope, the per-struct serializers, the
// Chrome trace export of a real solve, and the solve-only wire-counter
// bracket in measure_sssp.  docs/telemetry.md documents the schemas these
// tests pin down; a key removed here is a schema break and needs a
// schema_version bump there.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/delta_stepping.hpp"
#include "core/json.hpp"
#include "graph/builder.hpp"
#include "model/trace_export.hpp"
#include "serve/json.hpp"
#include "simmpi/comm.hpp"
#include "util/json.hpp"

namespace {

using namespace g500;
using g500::util::Json;

Json parse_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

void expect_keys(const Json& j, const std::vector<std::string>& keys,
                 const std::string& where) {
  for (const auto& key : keys) {
    EXPECT_TRUE(j.contains(key)) << where << " is missing \"" << key << '"';
  }
}

class TempReportDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("g500_telemetry_" +
            std::to_string(static_cast<unsigned>(::getpid())));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(TempReportDir, RunReportWritesGoldenEnvelope) {
  const char* argv[] = {"test_harness", "--scale", "12", "--report-dir",
                        nullptr};
  const std::string dir_str = dir_.string();
  argv[4] = dir_str.c_str();
  const util::Options options(5, argv);

  bench::RunReport report("golden", options);
  Json c = Json::object();
  c["scale"] = 12;
  report.add_case(std::move(c));

  util::Table table({"a", "b"});
  table.row().add(1).add(2);
  std::ostringstream quiet;
  bench::write_report(report, table, quiet);

  const std::string expected = (dir_ / "BENCH_golden.json").string();
  EXPECT_EQ(report.path(), expected);
  EXPECT_NE(quiet.str().find(expected), std::string::npos);

  const Json doc = parse_file(expected);
  expect_keys(doc,
              {"schema_version", "harness", "manifest", "options", "cases",
               "table"},
              "run report");
  EXPECT_EQ(doc.at("schema_version").as_int64(),
            bench::kRunReportSchemaVersion);
  EXPECT_EQ(doc.at("harness").as_string(), "golden");
  expect_keys(doc.at("manifest"),
              {"schema_version", "host", "timestamp_utc", "git_describe",
               "build_type", "compiler", "cxx_standard"},
              "manifest");
  EXPECT_EQ(doc.at("options").at("scale").as_string(), "12");
  ASSERT_EQ(doc.at("cases").size(), 1u);
  EXPECT_EQ(doc.at("cases").at(0).at("scale").as_int64(), 12);
  expect_keys(doc.at("table"), {"headers", "rows"}, "table echo");
}

TEST(TelemetrySchemas, MeasurementCarriesRequiredKeys) {
  graph::KroneckerParams params;
  params.scale = 10;
  const auto m = bench::measure_sssp(params, 2, core::SsspConfig{}, 1);
  const Json j = bench::to_json(m);
  expect_keys(j,
              {"schema_version", "seconds", "teps", "valid", "wire_bytes",
               "wire_messages", "rounds", "sssp_stats"},
              "measurement");
  EXPECT_EQ(j.at("schema_version").as_int64(),
            bench::kMeasurementSchemaVersion);
  const Json& stats = j.at("sssp_stats");
  expect_keys(stats,
              {"schema_version", "relax_generated", "relax_sent",
               "relax_applied", "buckets_processed", "light_iterations",
               "checkpoints", "restores", "checkpoint_seconds"},
              "sssp_stats");
}

void collect_keys(const Json& j, std::set<std::string>& keys) {
  if (j.is_object()) {
    for (const auto& [key, value] : j.members()) {
      keys.insert(key);
      collect_keys(value, keys);
    }
  } else if (j.is_array()) {
    for (const auto& element : j.elements()) collect_keys(element, keys);
  }
}

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool mentions_word(const std::string& text, const std::string& word) {
  for (auto pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    const auto end = pos + word.size();
    if ((pos == 0 || !is_word_char(text[pos - 1])) &&
        (end == text.size() || !is_word_char(text[end]))) {
      return true;
    }
  }
  return false;
}

// Docs coverage checked against real serializer output: every key the
// SsspStats and ServiceMetrics serializers emit (nested keys included)
// must appear as a whole word in the schema docs that
// scripts/check_docs.py reads (its SCHEMA_DOCS), so a new field-table row
// cannot ship undocumented.
TEST(TelemetrySchemas, StatsKeysAreDocumented) {
  std::string corpus;
  for (const char* doc : {"docs/telemetry.md", "docs/serving.md",
                          "docs/async.md", "docs/dynamic.md",
                          "docs/out_of_core.md"}) {
    std::ifstream in(std::string(G500_SOURCE_DIR) + "/" + doc);
    ASSERT_TRUE(in.is_open()) << doc;
    corpus.append(std::istreambuf_iterator<char>(in), {});
    corpus += '\n';
  }
  std::set<std::string> keys;
  collect_keys(core::to_json(core::SsspStats{}), keys);
  collect_keys(serve::to_json(serve::ServiceMetrics{}), keys);
  ASSERT_GT(keys.size(), 60u);
  for (const auto& key : keys) {
    EXPECT_TRUE(mentions_word(corpus, key))
        << "report key \"" << key << "\" is not documented";
  }
}

TEST(TelemetrySchemas, CommStatsCarriesRequiredKeys) {
  simmpi::World world(2);
  world.run([](simmpi::Comm& comm) {
    (void)comm.allreduce_sum(std::uint64_t{1});
    comm.barrier();
  });
  const Json j = simmpi::to_json(world.aggregate_stats());
  expect_keys(j,
              {"schema_version", "alltoallv", "allreduce", "allgather",
               "broadcast", "barriers", "stall_seconds", "total_bytes",
               "total_messages", "rounds"},
              "comm_stats");
  EXPECT_EQ(j.at("schema_version").as_int64(),
            simmpi::kCommStatsSchemaVersion);
  expect_keys(j.at("allreduce"), {"calls", "bytes", "messages"}, "allreduce");
  EXPECT_GE(j.at("allreduce").at("calls").as_uint64(), 1u);
}

TEST(TelemetrySchemas, ProjectionPointCarriesRequiredKeys) {
  model::Calibration cal;
  cal.calibration_scale = 12;
  const model::Projection proj(model::Machine::new_sunway(), cal);
  const Json j = model::to_json(proj.predict(40, 13440));
  expect_keys(j,
              {"schema_version", "scale", "nodes", "cores", "input_edges",
               "compute_seconds", "network_seconds", "latency_seconds",
               "total_seconds", "gteps", "memory_feasible"},
              "projection_point");
  EXPECT_EQ(j.at("schema_version").as_int64(),
            model::kProjectionPointSchemaVersion);
  const Json cj = model::to_json(cal);
  expect_keys(cj,
              {"schema_version", "relax_per_input_edge",
               "wire_bytes_per_input_edge", "rounds_per_sssp",
               "calibration_scale"},
              "calibration");
}

// The acceptance check from the issue: a scale-12 solve's exported Chrome
// trace must be structurally sound (metadata + one complete event per
// round, nondecreasing timestamps, pid/tid present on every event).
TEST(ChromeTrace, Scale12SolveExportsStructurallyValidTrace) {
  graph::KroneckerParams params;
  params.scale = 12;
  const int ranks = 4;

  simmpi::World world(ranks);
  std::vector<graph::DistGraph> graphs(static_cast<std::size_t>(ranks));
  world.run([&](simmpi::Comm& comm) {
    graphs[static_cast<std::size_t>(comm.rank())] =
        graph::build_kronecker(comm, params);
  });
  world.reset_stats();
  world.enable_trace();
  world.run([&](simmpi::Comm& comm) {
    (void)core::delta_stepping(
        comm, graphs[static_cast<std::size_t>(comm.rank())], 1);
  });
  const auto trace = world.merged_trace();
  ASSERT_FALSE(trace.empty());

  const Json doc = model::chrome_trace(trace, model::Machine::new_sunway(),
                                       13440, 6, ranks);
  expect_keys(doc,
              {"schema_version", "displayTimeUnit", "traceEvents",
               "otherData"},
              "chrome trace");
  EXPECT_EQ(doc.at("schema_version").as_int64(),
            model::kChromeTraceSchemaVersion);

  const Json& events = doc.at("traceEvents");
  ASSERT_GT(events.size(), 0u);
  std::size_t complete_events = 0;
  double last_ts = 0.0;
  bool saw_metadata = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    expect_keys(e, {"name", "ph", "pid", "tid"}, "trace event");
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      saw_metadata = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    expect_keys(e, {"ts", "dur", "cat", "args"}, "complete event");
    const double ts = e.at("ts").as_double();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    expect_keys(e.at("args"),
                {"round", "total_bytes", "max_rank_bytes", "stall_seconds"},
                "event args");
    ++complete_events;
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_EQ(complete_events, trace.size());
  EXPECT_EQ(doc.at("otherData").at("rounds").as_uint64(), trace.size());

  // Mismatched replay must be rejected, not silently mislabeled.
  auto truncated = trace;
  truncated.pop_back();
  const auto replay = model::replay_trace(
      truncated, model::Machine::new_sunway(), 13440, 6, ranks);
  EXPECT_THROW((void)model::chrome_trace(trace, replay),
               std::invalid_argument);
}

// Regression for the counter-bracket bug: validation traffic used to leak
// into the reported wire counters.  The runtime is deterministic, so the
// same measurement with and without validation must agree exactly.
TEST(MeasureSssp, WireCountersExcludeValidationTraffic) {
  graph::KroneckerParams params;
  params.scale = 10;
  const auto with_validation = bench::measure_sssp(
      params, 4, core::SsspConfig{}, 1, core::Algorithm::kDeltaStepping,
      /*validate=*/true);
  const auto without_validation = bench::measure_sssp(
      params, 4, core::SsspConfig{}, 1, core::Algorithm::kDeltaStepping,
      /*validate=*/false);
  EXPECT_TRUE(with_validation.valid);
  EXPECT_GT(with_validation.wire_bytes, 0u);
  EXPECT_EQ(with_validation.wire_bytes, without_validation.wire_bytes);
  EXPECT_EQ(with_validation.wire_messages, without_validation.wire_messages);
  EXPECT_EQ(with_validation.rounds, without_validation.rounds);
}

}  // namespace
