#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "util/random.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used, 0);
  if (used != text.size()) {
    throw std::invalid_argument(flag + ": not an integer: " + text);
  }
  return v;
}

int parse_int(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const int v = std::stoi(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument(flag + ": not an integer: " + text);
  }
  return v;
}

constexpr const char* kSeedFlags[] = {"kron-seed1", "kron-seed2", "root-seed",
                                      "query-seed", "write-seed"};

}  // namespace

std::uint64_t Options::seed_for(const std::string& name) const {
  for (const auto& [n, v] : seed_overrides) {
    if (n == name) return v;
  }
  return util::mix64(seed ^ util::hash_bytes(name.data(), name.size(),
                                             0x9e3779b9));
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got " + flag);
    }
    const std::string name = flag.substr(2);
    const std::string value = argv[++i];
    if (name == "workload") {
      opt.workload = value;
    } else if (name == "seed") {
      opt.seed = parse_u64(flag, value);
    } else if (name == "seconds") {
      opt.seconds = std::stod(value);
    } else if (name == "trace") {
      opt.trace = parse_int(flag, value) != 0;
    } else if (name == "trace-out") {
      opt.trace_path = value;
    } else if (name == "scratch") {
      opt.scratch_dir = value;
    } else if (name == "size") {
      if (value != "full" && value != "small") {
        throw std::invalid_argument("--size must be full or small");
      }
      opt.small = value == "small";
    } else if (std::find(std::begin(kSeedFlags), std::end(kSeedFlags), name) !=
               std::end(kSeedFlags)) {
      opt.seed_overrides.emplace_back(name, parse_u64(flag, value));
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (opt.seconds <= 0.0) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return opt;
}

int fit_ranks(int wanted, int threads_per_rank) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  if (cpus <= 0) cpus = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(wanted, cpus / threads_per_rank));
}

std::int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

std::int32_t Tracer::open(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  Record r;
  r.name = name;
  r.start_ns = now_ns();
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.request = request;
  records_.push_back(r);
  const auto index = static_cast<std::int32_t>(records_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index, const char* rename) {
  if (index < 0) return;
  Record& r = records_[static_cast<std::size_t>(index)];
  r.end_ns = now_ns();
  if (rename != nullptr) r.name = rename;
  stack_.pop_back();
}

void Tracer::lifetime(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t request) {
  if (!enabled_) return;
  lifetimes_.push_back(Record{name, start_ns, end_ns, -1, request});
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, Summary> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Summary& s = by_name[r.name];
    s.name = r.name;
    ++s.calls;
    s.total_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    s.self_s += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) * 1e-9;
  }
  std::vector<Summary> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  std::sort(out.begin(), out.end(), [](const Summary& a, const Summary& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Tracer>& tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  auto event = [&](const Tracer::Record& r, std::size_t rank,
                   const char* phase, std::int64_t ts_ns) {
    out << (first ? "" : ",") << "\n{\"name\":\""
        << util::json_escape(r.name) << "\",\"ph\":\"" << phase
        << "\",\"pid\":0,\"tid\":" << rank
        << ",\"ts\":" << util::json_double(static_cast<double>(ts_ns) * 1e-3);
    first = false;
  };
  for (std::size_t rank = 0; rank < tracers.size(); ++rank) {
    for (const auto& r : tracers[rank].records()) {
      event(r, rank, "X", r.start_ns);
      out << ",\"dur\":"
          << util::json_double(static_cast<double>(r.end_ns - r.start_ns) *
                               1e-3)
          << ",\"args\":{\"request\":" << r.request << "}}";
    }
    for (const auto& r : tracers[rank].lifetimes()) {
      event(r, rank, "b", r.start_ns);
      out << ",\"cat\":\"request\",\"id\":" << r.request << "}";
      event(r, rank, "e", r.end_ns);
      out << ",\"cat\":\"request\",\"id\":" << r.request << "}";
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace " + path);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  // A failed operation counts as +inf: any share of it reaches infinity.
  if (std::isinf(values[lo + 1])) return values[lo + 1];
  return values[lo] + (values[lo + 1] - values[lo]) * frac;
}

std::uint64_t samples_beyond(std::size_t n, double q) {
  const auto at = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n > 0 ? n - 1 : 0)));
  return n > 0 ? n - 1 - at : 0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  if (!out) throw std::runtime_error("cannot reset /proc/self/clear_refs");
}

graph::DistGraph build_kronecker_timed(simmpi::Comm& comm, Tracer& tracer,
                                       const graph::KroneckerParams& params,
                                       BuildLog& log) {
  const std::uint64_t total = params.num_edges();
  const auto P = static_cast<std::uint64_t>(comm.size());
  const auto r = static_cast<std::uint64_t>(comm.rank());

  comm.barrier();
  util::Timer timer;
  graph::EdgeList slice;
  {
    Span span(tracer, "graph.generate");
    slice.num_vertices = params.num_vertices();
    slice.edges =
        graph::kronecker_slice(params, total * r / P, total * (r + 1) / P);
  }
  comm.barrier();
  const double generate_s = timer.seconds();

  const std::uint64_t bytes_before = comm.stats().total_bytes();
  timer.reset();
  graph::DistGraph g;
  {
    Span span(tracer, "graph.build");
    g = graph::build_distributed(comm, slice, params.num_vertices());
  }
  const std::uint64_t bytes = comm.stats().total_bytes() - bytes_before;
  comm.barrier();
  const double build_s = timer.seconds();
  const std::uint64_t all_bytes = comm.allreduce_sum(bytes);
  if (comm.rank() == 0) {
    log.generate_s.push_back(generate_s);
    log.build_s.push_back(build_s);
    log.build_wire_bytes = all_bytes;
  }
  return g;
}

void Report::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

void Report::attach_trace(const Options& opt,
                          const std::vector<Tracer>& tracers) {
  if (!opt.trace || tracers.empty()) return;
  for (const auto& s : tracers.front().summarize()) {
    util::Json row = util::Json::object();
    row["span"] = s.name;
    row["calls"] = s.calls;
    row["total_s"] = s.total_s;
    row["self_s"] = s.self_s;
    spans.push_back(std::move(row));
  }
  if (!opt.trace_path.empty()) write_chrome_trace(opt.trace_path, tracers);
}

util::Json Report::to_json(const std::string& workload) const {
  util::Json out = util::Json::object();
  out["workload"] = workload;
  out["correct"] = correct;
  out["attempted"] = attempted;
  out["failed"] = failed;
  util::Json errs = util::Json::array();
  for (const auto& e : errors) errs.push_back(e);
  out["errors"] = std::move(errs);
  out["metrics"] = metrics;
  out["samples"] = samples;
  out["layers"] = layers;
  out["exact"] = exact;
  out["config"] = config;
  out["spans"] = spans;
  return out;
}

}  // namespace perfbench
