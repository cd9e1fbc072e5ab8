// Shared plumbing of the benchmark workloads: command-line options and
// seeds, the span tracer, sample statistics, process memory readings and
// the report every workload fills.
//
// The workloads drive the library only through its public headers, from
// outside: every timing here is a call boundary the benchmark itself
// brackets, and every counter is one a layer already exposes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"
#include "util/json.hpp"

namespace g500::core {}
namespace g500::dyn {}
namespace g500::ooc {}
namespace g500::serve {}

namespace perfbench {

namespace core = g500::core;
namespace dyn = g500::dyn;
namespace graph = g500::graph;
namespace ooc = g500::ooc;
namespace serve = g500::serve;
namespace simmpi = g500::simmpi;
namespace util = g500::util;

/// Command-line options shared by all workloads.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;     ///< master seed; named seeds derive from it
  double seconds = 10.0;      ///< measured time per run
  bool trace = false;         ///< record spans (the per-layer run)
  std::string trace_path;     ///< Chrome trace output (trace mode only)
  std::string scratch_dir;    ///< files the workload may write (ooc shards)
  /// --size small: each workload's reduced sizes (the self-test's),
  /// defined next to its full sizes.
  bool small = false;

  /// Named seed overrides (--kron-seed1 etc.); absent names derive from
  /// `seed`.
  std::vector<std::pair<std::string, std::uint64_t>> seed_overrides;

  /// The seed `name` resolves to: its override, else a hash of the
  /// master seed and the name, so the streams are independent.
  [[nodiscard]] std::uint64_t seed_for(const std::string& name) const;
};

/// Parses argv; throws std::invalid_argument on anything unknown.
[[nodiscard]] Options parse_options(int argc, char** argv);

/// Ranks to run with: `wanted`, reduced so that ranks * threads_per_rank
/// never exceeds the CPUs this process may use.
[[nodiscard]] int fit_ranks(int wanted, int threads_per_rank);

/// Monotonic nanoseconds since the first call in this process.
[[nodiscard]] std::int64_t now_ns();

/// Span recorder for one rank (one thread).  Spans nest like calls: each
/// records its name, start, end, the enclosing span and a request id (a
/// root index, a query id, a tick).  Disabled tracers record nothing.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int64_t request = -1;
  };
  /// Aggregate of every span with one name.
  struct Summary {
    std::string name;
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< duration minus time covered by child spans
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  std::int32_t open(const char* name, std::int64_t request);
  void close(std::int32_t index, const char* rename);
  /// A request's lifetime that crosses call boundaries (a query from its
  /// arrival tick to its completion tick); kept apart from the call tree.
  void lifetime(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::int64_t request);

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<Record>& lifetimes() const noexcept {
    return lifetimes_;
  }
  /// Per-name totals and self times, largest self time first.
  [[nodiscard]] std::vector<Summary> summarize() const;

 private:
  bool enabled_;
  std::vector<Record> records_;
  std::vector<Record> lifetimes_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: opened at construction, closed at destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::int64_t request = -1)
      : tracer_(tracer), index_(tracer.open(name, request)) {}
  ~Span() { tracer_.close(index_, rename_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Record the span under another name (decided after it opened).
  void rename(const char* name) noexcept { rename_ = name; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
  const char* rename_ = nullptr;
};

/// Write every rank's spans as Chrome trace_event JSON (tid = rank).
void write_chrome_trace(const std::string& path,
                        const std::vector<Tracer>& tracers);

/// Quantile with linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Samples strictly beyond quantile q of n samples.
[[nodiscard]] std::uint64_t samples_beyond(std::size_t n, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Resident-set high-water mark of this process, MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();
/// Restart the high-water mark at the current resident size.
void reset_peak_rss();

/// Set-up timings of graph generation and construction, written by rank 0.
struct BuildLog {
  std::vector<double> generate_s;
  std::vector<double> build_s;
  std::uint64_t build_wire_bytes = 0;  ///< all ranks, last build
};

/// SPMD: what graph::build_kronecker does (this rank's slice of the
/// Kronecker stream, then graph::build_distributed), with the two steps
/// timed apart between barriers.  Rank 0 appends to `log`.
[[nodiscard]] graph::DistGraph build_kronecker_timed(
    simmpi::Comm& comm, Tracer& tracer, const graph::KroneckerParams& params,
    BuildLog& log);

/// What one workload run measured and checked.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  util::Json metrics = util::Json::object();  ///< end-to-end, by name
  util::Json samples = util::Json::object();  ///< sample counts behind them
  util::Json layers = util::Json::object();   ///< per-layer metrics
  util::Json exact = util::Json::object();    ///< deterministic fingerprint
  util::Json config = util::Json::object();   ///< sizes and seeds used
  util::Json spans = util::Json::array();     ///< rank-0 self times (trace)

  /// Record a failed check (keeps the first few messages).
  void fail(const std::string& why);
  /// Fill `spans` from rank 0's tracer and, when a path is given, write
  /// the Chrome trace of every rank.
  void attach_trace(const Options& opt, const std::vector<Tracer>& tracers);
  [[nodiscard]] util::Json to_json(const std::string& workload) const;
};

Report run_g500_kron(const Options& opt);
Report run_serve_rw(const Options& opt);
Report run_ooc_build(const Options& opt);

}  // namespace perfbench
