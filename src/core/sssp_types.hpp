// Public types of the SSSP engines: configuration knobs (each one is an
// optimization the evaluation ablates), per-rank results, and the detailed
// execution statistics the communication-analysis experiments report.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "util/field_table.hpp"
#include "util/histogram.hpp"

namespace g500::core {

/// Which way a round of SSSP or BFS moves distances: push sends a candidate
/// to the owner of each frontier edge's target (top-down); pull broadcasts
/// the frontier and has each owner scan its own rows (bottom-up).
enum class Direction : std::uint8_t {
  kAuto,  ///< the engine chooses per round
  kPush,  ///< push every round
  kPull,  ///< pull every round
};

[[nodiscard]] constexpr const char* direction_name(Direction d) {
  constexpr const char* kNames[] = {"auto", "push", "pull"};
  return kNames[static_cast<int>(d)];
}

/// The config contract of an engine that lacks a switch whose default is
/// off or automatic: a caller that sets it gets std::invalid_argument
/// naming the engine and the switch, never a silent fallback.
inline void refuse_switch(bool set, const char* engine, const char* name) {
  if (!set) return;
  throw std::invalid_argument(std::string(engine) + ": cannot honour " + name);
}

/// Tuning knobs of the delta-stepping engine, fixed across a caller's runs.
/// Defaults reproduce the fully-optimized configuration; the ablation
/// benchmarks switch features off one at a time.  What a caller sets per
/// run (warm start, pruning, deadline, checkpoint) is core::RunControl.
struct SsspConfig {
  /// Bucket width.  <= 0 selects automatically: ~1/average-degree, the
  /// standard choice for uniform [0,1) weights (Meyer & Sanders).
  double delta = 0.0;

  /// Deduplicate relaxation requests per destination before sending
  /// (keep only the minimum candidate per target vertex per round).
  bool coalesce = true;

  /// Filter relaxations aimed at replicated top-degree vertices against a
  /// local mirror of their tentative distance.  Requires graph.hubs.
  bool hub_cache = true;

  /// Push or pull, in light rounds and heavy phases alike.  kAuto lets the
  /// 1-D engine pull dense frontiers by its byte model; kPull pulls every
  /// round that has edges to relax.  The other engines only push.
  Direction direction = Direction::kAuto;

  /// Apply relaxations that target locally-owned vertices immediately
  /// instead of routing them through the exchange.
  bool local_fusion = true;

  /// Pack relaxation requests into 12-byte records (32-bit local target
  /// index + 32-bit parent + float distance) when the graph has fewer than
  /// 2^32 vertices — halves wire bytes per request.  Falls back to the
  /// wide format automatically on larger graphs.
  bool compress = true;

  /// Route relaxation exchanges through the two-level supernode-aggregated
  /// alltoallv with groups of this many consecutive ranks (<= 1 = flat).
  /// Cuts per-round message count from O(P^2) to O(P*G + P^2/G^2) at the
  /// cost of each byte crossing the network up to three times — the
  /// topology-aware trade record runs make.
  int hierarchical_group = 0;

  /// Safety valve: abort after this many global buckets (0 = unlimited).
  std::uint64_t max_buckets = 0;

  /// Record a per-bucket execution log in SsspStats::bucket_trace
  /// (bucket index, rounds, frontier mass, wall time) — the time-series
  /// behind the phase-breakdown figure.
  bool collect_bucket_trace = false;

  /// Convenience: everything off = textbook distributed delta-stepping.
  [[nodiscard]] static SsspConfig plain() {
    SsspConfig c;
    c.coalesce = false;
    c.hub_cache = false;
    c.direction = Direction::kPush;
    c.local_fusion = false;
    c.compress = false;
    return c;
  }
};

/// Refuses, for a comparison engine, the off-by-default or automatic
/// switches only the 1-D delta-stepping engine honours.
inline void refuse_one_d_switches(const SsspConfig& c, const char* engine) {
  refuse_switch(c.direction == Direction::kPull, engine, "direction kPull");
  refuse_switch(c.collect_bucket_trace, engine, "collect_bucket_trace");
}

/// Per-rank SSSP output: tentative distance and parent for owned vertices
/// (indexed by local id).  Reachable vertices satisfy
/// dist[v] = dist[parent[v]] + w(parent[v], v); the root is its own parent.
struct SsspResult {
  std::vector<graph::Weight> dist;
  std::vector<graph::VertexId> parent;
};

/// One bucket's execution record (collected when
/// SsspConfig::collect_bucket_trace is set; global values, identical on
/// every rank except wall time which is rank-local).
struct BucketTraceRow {
  std::uint64_t bucket = 0;
  std::uint64_t light_rounds = 0;
  std::uint64_t frontier_total = 0;  ///< sum of global frontier sizes
  std::uint64_t settled = 0;         ///< R-set size on this rank
  double seconds = 0.0;
};

/// Execution counters for one SSSP run (per rank; allreduce to aggregate).
struct SsspStats {
  std::uint64_t buckets_processed = 0;
  std::uint64_t light_iterations = 0;  ///< inner rounds across all buckets
  std::uint64_t heavy_phases = 0;
  /// Bucket rounds by direction: every light round and every heavy phase
  /// counts once, so push_rounds + pull_rounds == light_iterations +
  /// heavy_phases in the synchronous engines (the 2-D engine always
  /// pushes).
  std::uint64_t push_rounds = 0;
  std::uint64_t pull_rounds = 0;
  /// Hub mirror tightens (one min-allreduce each): buckets whose light
  /// loop found some rank's mirror contribution stale.
  std::uint64_t hub_syncs = 0;

  std::uint64_t relax_generated = 0;   ///< candidate relaxations produced
  std::uint64_t relax_sent = 0;        ///< survived filters, left this rank
  std::uint64_t relax_received = 0;
  std::uint64_t relax_applied = 0;     ///< actually improved a distance
  std::uint64_t fused_local = 0;       ///< applied locally without a message
  std::uint64_t filtered_hub = 0;      ///< dropped by the hub mirror
  std::uint64_t filtered_coalesce = 0; ///< dropped by per-round dedup
  std::uint64_t frontier_broadcast = 0;///< vertices shipped by pull rounds
  std::uint64_t pruned_expand = 0;     ///< vertices skipped by goal-directed
                                       ///< pruning at expansion
  std::uint64_t pruned_apply = 0;      ///< improving candidates dropped by
                                       ///< goal-directed pruning

  std::uint64_t checkpoints = 0;       ///< snapshots taken this run
  std::uint64_t restores = 0;          ///< runs resumed from a snapshot
  std::uint64_t deadline_stops = 0;    ///< runs truncated by a deadline

  /// When the run stopped at its deadline budget, the bucket boundary
  /// k * delta at which it broke: distances strictly below this value are
  /// exactly settled, larger ones are only upper bounds.  Infinity for a
  /// run that completed normally (every distance exact).
  double settled_bound = std::numeric_limits<double>::infinity();

  /// Global synchronization rounds (collective calls) this run charged —
  /// the quantity the async engine exists to shrink.  Identical on every
  /// rank (collectives are matched).
  std::uint64_t global_collectives = 0;
  /// Work sub-rounds: inner exchange rounds + heavy phases for the sync
  /// engine; bucket expansions for the async engine (rank-local there —
  /// ranks proceed independently, so global_stats reports the mean).
  std::uint64_t sub_rounds = 0;
  /// Async engine only: aggregator flushes by trigger (capacity vs
  /// timeout/idle drain).
  std::uint64_t aggregator_flush_capacity = 0;
  std::uint64_t aggregator_flush_timeout = 0;

  double total_seconds = 0.0;
  double light_seconds = 0.0;
  double heavy_seconds = 0.0;
  double checkpoint_seconds = 0.0;     ///< time spent taking snapshots

  util::Log2Histogram frontier_hist;   ///< active-set size per inner round

  /// Per-bucket log (empty unless requested; not merged across runs).
  std::vector<BucketTraceRow> bucket_trace;

  /// Accumulate another run; RankReduce says how each field combines.
  void merge(const SsspStats& other);
};

/// How an SsspStats field combines across ranks in core::global_stats.
/// SsspStats::merge adds every field except a kMin one, which keeps the
/// minimum.
enum class RankReduce : std::uint8_t {
  kSum,   ///< each rank counts its own share
  kMean,  ///< sum / P: a global count every rank repeats (for the async
          ///< engine's rank-local sub_rounds, the per-rank mean)
  kMax,   ///< the slowest rank's wall time
  kMin,   ///< the most conservative bound
};

template <typename T>
using SsspStatsField = util::Field<SsspStats, T, RankReduce>;

/// Every integer counter of SsspStats with its report key and cross-rank
/// rule.  global_stats sums them in one allreduce, so only kSum and kMean
/// apply.
inline constexpr SsspStatsField<std::uint64_t> kSsspCounterFields[] = {
    // The bucket loop is epoch-synchronous: every rank counts the same
    // global buckets, rounds and phases.
    {"buckets_processed", &SsspStats::buckets_processed, RankReduce::kMean},
    {"light_iterations", &SsspStats::light_iterations, RankReduce::kMean},
    {"heavy_phases", &SsspStats::heavy_phases, RankReduce::kMean},
    {"push_rounds", &SsspStats::push_rounds, RankReduce::kMean},
    {"pull_rounds", &SsspStats::pull_rounds, RankReduce::kMean},
    {"hub_syncs", &SsspStats::hub_syncs, RankReduce::kMean},
    {"relax_generated", &SsspStats::relax_generated, RankReduce::kSum},
    {"relax_sent", &SsspStats::relax_sent, RankReduce::kSum},
    {"relax_received", &SsspStats::relax_received, RankReduce::kSum},
    {"relax_applied", &SsspStats::relax_applied, RankReduce::kSum},
    {"fused_local", &SsspStats::fused_local, RankReduce::kSum},
    {"filtered_hub", &SsspStats::filtered_hub, RankReduce::kSum},
    {"filtered_coalesce", &SsspStats::filtered_coalesce, RankReduce::kSum},
    {"frontier_broadcast", &SsspStats::frontier_broadcast, RankReduce::kSum},
    {"pruned_expand", &SsspStats::pruned_expand, RankReduce::kSum},
    {"pruned_apply", &SsspStats::pruned_apply, RankReduce::kSum},
    // Checkpoints, restores and deadline stops happen at an
    // allreduce-agreed epoch, and collectives are matched.
    {"checkpoints", &SsspStats::checkpoints, RankReduce::kMean},
    {"restores", &SsspStats::restores, RankReduce::kMean},
    {"deadline_stops", &SsspStats::deadline_stops, RankReduce::kMean},
    {"global_collectives", &SsspStats::global_collectives, RankReduce::kMean},
    {"sub_rounds", &SsspStats::sub_rounds, RankReduce::kMean},
    {"aggregator_flush_capacity", &SsspStats::aggregator_flush_capacity,
     RankReduce::kSum},
    {"aggregator_flush_timeout", &SsspStats::aggregator_flush_timeout,
     RankReduce::kSum},
};

/// Every floating-point field of SsspStats with its report key and
/// cross-rank rule: global_stats runs one allreduce_min or allreduce_max
/// per row, in this order.
inline constexpr SsspStatsField<double> kSsspDoubleFields[] = {
    {"settled_bound", &SsspStats::settled_bound, RankReduce::kMin},
    {"total_seconds", &SsspStats::total_seconds, RankReduce::kMax},
    {"light_seconds", &SsspStats::light_seconds, RankReduce::kMax},
    {"heavy_seconds", &SsspStats::heavy_seconds, RankReduce::kMax},
    {"checkpoint_seconds", &SsspStats::checkpoint_seconds, RankReduce::kMax},
};

inline void SsspStats::merge(const SsspStats& other) {
  for (const auto& f : kSsspCounterFields) this->*f.member += other.*f.member;
  for (const auto& f : kSsspDoubleFields) {
    this->*f.member = f.rule == RankReduce::kMin
                          ? std::min(this->*f.member, other.*f.member)
                          : this->*f.member + other.*f.member;
  }
  frontier_hist.merge(other.frontier_hist);
}

/// One relaxation request on the wire: "target may be reachable at
/// distance `dist` via `parent`".
struct RelaxRequest {
  graph::VertexId target;
  graph::VertexId parent;
  graph::Weight dist;
};

/// Compressed wire format (SsspConfig::compress): target as the owner's
/// local index and parent as a 32-bit global id — valid while
/// num_vertices < 2^32, which covers any graph a rank set materializes.
struct PackedRelaxRequest {
  std::uint32_t target_local;
  std::uint32_t parent;
  graph::Weight dist;
};
static_assert(sizeof(PackedRelaxRequest) == 12);

/// One frontier entry broadcast by a pull round.
struct FrontierEntry {
  graph::VertexId vertex;
  graph::Weight dist;
};

}  // namespace g500::core
