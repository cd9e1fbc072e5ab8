// Out-of-core pipelined graph construction.
//
// Builds the same distributed CSR as graph::build_distributed without ever
// holding a rank's edge set in memory.  The classic external-memory
// bin/sort/pack pipeline (cf. the Graph500 reference out-of-core
// implementations): generator chunks stream through a chunked alltoallv
// exchange into a bounded staging buffer ("bin"), full buffers are handed
// to a worker thread that sorts and spills them as runs ("sort",
// overlapped with the next chunks' generation and exchange), and a final
// k-way merge deduplicates, re-sorts each vertex's adjacency and streams
// the packed CSR shard to disk ("pack").  The result is a shard directory
// graph::load_sharded maps back as a DistGraph whose arrays are
// byte-identical to the in-memory build's.
//
// Memory honesty: every buffer the pipeline allocates is charged against
// PipelineOptions::resident_budget_bytes through a shared accountant; the
// build *throws* if the budget would be exceeded instead of silently
// ballooning, and reports the true peak so harnesses can gate on it.
#pragma once

#include <cstdint>
#include <string>

#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"
#include "util/json.hpp"

namespace g500::ooc {

struct PipelineOptions {
  /// Hard cap on pipeline heap per rank (staging, queued runs, merge
  /// buffers, offset arrays).  Exceeding it throws std::runtime_error.
  std::uint64_t resident_budget_bytes = 256ull << 20;
  /// Generator edges materialized and exchanged per round.
  std::uint64_t chunk_edges = 1ull << 15;
  /// Where run files and the w section temporary live; defaults to the shard
  /// directory itself when empty.
  std::string scratch_dir;
};

/// One pipeline stage's aggregate counters (summed over ranks).
struct StageStats {
  std::uint64_t edges = 0;    ///< edges through the stage
  std::uint64_t bytes = 0;    ///< bytes produced by the stage
  double seconds = 0.0;       ///< max over ranks, busy time

  /// Millions of edges per second through the stage.
  [[nodiscard]] double meps() const {
    return seconds > 0.0 ? static_cast<double>(edges) / seconds / 1e6 : 0.0;
  }
};

/// What one pipelined build did — the `build_pipeline` telemetry block.
struct BuildPipelineStats {
  StageStats bin;    ///< generate + route + exchange into staging
  StageStats sort;   ///< sort staged runs and spill them (worker thread)
  StageStats pack;   ///< merge, dedup, per-vertex re-sort, shard write
  std::uint64_t runs_spilled = 0;        ///< run files written, all ranks
  std::uint64_t spilled_bytes = 0;       ///< run-file bytes, all ranks
  std::uint64_t shard_bytes = 0;         ///< final shard files, all ranks
  std::uint64_t peak_resident_bytes = 0; ///< max over ranks of the true peak
  std::uint64_t budget_bytes = 0;        ///< the enforced per-rank cap
  double total_seconds = 0.0;            ///< max over ranks, whole build
};

/// `build_pipeline` telemetry object (docs/out_of_core.md).
[[nodiscard]] util::Json to_json(const BuildPipelineStats& stats);

/// SPMD: stream this rank's slice of the Kronecker edge stream through the
/// bin/sort/pack pipeline and write shard `comm.rank()` of `comm.size()`
/// into `shard_dir` (created if needed).  Collective: every rank must
/// call with identical params/options.  Returns identical stats on every
/// rank.  Throws std::runtime_error if the resident budget is exceeded or
/// any file operation fails.
BuildPipelineStats build_sharded_kronecker(
    simmpi::Comm& comm, const graph::KroneckerParams& params,
    const std::string& shard_dir, const PipelineOptions& opts = {});

}  // namespace g500::ooc
