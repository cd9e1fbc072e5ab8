// Online analytics service on top of the distributed graph kernels.
//
// The service turns the offline kernels into a request-serving loop
// with the shape of an inference-serving stack:
//
//   * admission queue — bounded depth; an arrival that finds it full is
//     shed (the new query is rejected);
//   * micro-batch scheduler — pending queries are coalesced per simulated
//     tick and dispatched together once the batch fills or the oldest
//     waiter hits the dispatch deadline; the batch's roots are deduped so
//     one delta-stepping wave serves every query on that root, and all
//     answers of a batch are extracted through a single batched
//     value-fetch exchange (core::fetch_values_batched);
//   * adaptive batching — optionally (ServeConfig::adaptive) the
//     batch-size and deadline knobs track the observed arrival rate
//     instead of staying fixed (adaptive.hpp);
//   * landmark oracle — optionally (ServeConfig::oracle) point-to-point
//     batches consult an ALT distance oracle first: triangle-inequality
//     bounds answer s == t, landmark roots and proven-unreachable pairs
//     outright, and every remaining cache-miss root dispatches a
//     goal-directed *pruned* wave bounded by the oracle's lb/ub instead
//     of a full one (oracle.hpp).  Pruned slices are exact at their
//     targets but stale elsewhere, so they never enter the cache;
//   * versioned stores (cache.hpp) — three bounded LRU maps stamped with
//     the graph version: per-rank root distance slices, so popular roots
//     skip the wave entirely; exact (root, target) -> distance points
//     banked by earlier pruned waves, consulted IN FRONT of the slice
//     store so a repeated point query costs a lookup instead of a wave;
//     and the analytics memo;
//   * analytics class — kAnalytics queries queue separately (bounded by
//     kAnalyticsQueueDepth in service.cpp) and run through the kernel
//     registry (kernels.hpp: PageRank, k-core, components, reachability).
//     The scheduler keeps cheap distance batches flowing: every tick
//     serves the distance batch first, then at most ONE analytics job, and
//     only when the job has aged past kAnalyticsDeferTicks, the distance
//     queue is idle, or the tick is a flush.  Whole-graph results are
//     memoized per graph version; a job still queued at its deadline
//     expires like a distance read;
//   * SLO telemetry — PER-CLASS latency (in ticks) histograms with
//     interpolated p50/p90/p99 and per-class SLO targets, queue depth,
//     batch occupancy, shed and cache counters.
//
// SPMD contract: construct one DistanceService per rank inside
// World::run, feed every rank the identical submission sequence (the
// deterministic serve::Workload guarantees this), and call tick() on all
// ranks in lockstep — waves and fetches are collectives, and with the
// oracle enabled so is the constructor (landmark precompute).  Nearest-
// facility queries are answered from one delta_stepping_multi wave over
// the configured facility set, cached under a reserved key.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/delta_stepping.hpp"
#include "dyn/mutable_graph.hpp"
#include "graph/builder.hpp"
#include "serve/adaptive.hpp"
#include "serve/cache.hpp"
#include "serve/fault.hpp"
#include "serve/kernels.hpp"
#include "serve/oracle.hpp"
#include "serve/workload.hpp"
#include "simmpi/comm.hpp"
#include "util/field_table.hpp"
#include "util/histogram.hpp"

namespace g500::serve {

/// What a caller chooses about a service.  Everything else (dispatch
/// deadline, SLO, point-cache bound, the waves' engine knobs, adaptive
/// ranges, retry and breaker settings) is a constant; docs/serving.md
/// lists them.
struct ServeConfig {
  std::size_t queue_depth = 64;    ///< admission bound (>=1)
  std::size_t batch_size = 8;      ///< max queries dispatched per tick
  std::size_t cache_budget_bytes = std::size_t{1} << 20;  ///< per rank
  std::vector<graph::VertexId> facilities;  ///< nearest-query source set
  OracleConfig oracle;             ///< num_landmarks > 0 enables the oracle
  bool adaptive = false;           ///< the batch controller sets the knobs

  // ---- analytics class -------------------------------------------------
  AnalyticsConfig analytics;       ///< kernel-registry knobs

  /// Graph version the service starts on (dyn::MutableGraph::version of
  /// the view it was constructed over; 0 for a static graph).  Every
  /// cached artifact is stamped with the version it was solved on and
  /// fails closed on mismatch; note_graph_update() advances the live
  /// version after a commit.
  std::uint64_t graph_version = 0;
};

/// How a query's lifecycle ended.
enum class Outcome : std::uint8_t {
  kServed,            ///< exact answer (cache, oracle-exact or wave)
  kDegraded,          ///< approximate answer from the oracle's lb/ub interval
  kDeadlineExceeded,  ///< deadline expired in queue, or the wave was truncated
  kFailed,            ///< no answer (retries/breaker exhausted, no fallback)
};

/// One completed query.
struct Answer {
  std::uint64_t id = 0;
  QueryKind kind = QueryKind::kPointToPoint;
  graph::VertexId root = 0;
  graph::VertexId target = 0;
  graph::Weight distance = 0.0f;
  bool from_cache = false;
  bool from_oracle = false;  ///< settled by landmark bounds, no wave or fetch
  bool pruned_wave = false;  ///< answered by a goal-directed pruned wave
  Outcome outcome = Outcome::kServed;
  /// Certified interval around the true distance.  kServed: lb == ub ==
  /// distance.  kDegraded: the oracle's triangle-inequality bracket
  /// (distance == ub).  kDeadlineExceeded via wave truncation: lb is the
  /// settled bound, ub the tentative value.  kFailed / queue-expired: the
  /// vacuous [0, inf).
  graph::Weight lb = 0.0f;
  graph::Weight ub = graph::kInfDistance;
  std::uint64_t arrival_tick = 0;
  std::uint64_t completion_tick = 0;
  /// Served from the exact point cache (no oracle pass, wave or fetch).
  bool from_point_cache = false;
  /// Analytics fields (valid when kind == kAnalytics): which kernel ran,
  /// its headline scalar (see AnalyticsOutcome::value) and its validation
  /// digest.  An analytics job is never kDegraded.
  AnalyticsKernel kernel = AnalyticsKernel::kPageRank;
  double value = 0.0;
  std::uint64_t digest = 0;
  /// Graph version the answer was computed against (the service's live
  /// version at completion time).
  std::uint64_t graph_version = 0;
  /// Saturating: a flush can complete a query on an earlier tick than its
  /// recorded arrival only if the caller's clocks disagree; report 0
  /// rather than wrapping to ~2^64.
  [[nodiscard]] std::uint64_t latency_ticks() const noexcept {
    return completion_tick >= arrival_tick ? completion_tick - arrival_tick
                                           : 0;
  }
};

/// Service counters.  Everything except the *_seconds fields and the
/// wave work counters (wave_relax_* / wave_pruned_*, which count this
/// rank's share of engine work — allreduce_sum for global totals) is a
/// pure function of the submission sequence and thus identical across
/// ranks.
struct ServiceMetrics {
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t answered = 0;
  std::uint64_t slo_violations = 0;

  std::uint64_t batches = 0;
  std::uint64_t waves = 0;         ///< delta-stepping waves dispatched
  std::uint64_t pruned_waves = 0;  ///< subset of `waves` that ran pruned
  std::uint64_t fetch_rounds = 0;  ///< batched answer-extraction exchanges
  std::uint64_t ticks = 0;         ///< tick() calls observed

  std::uint64_t oracle_exact = 0;        ///< answered outright by bounds
  std::uint64_t oracle_unreachable = 0;  ///< subset proven unreachable
  std::uint64_t adaptive_adjustments = 0;  ///< controller knob changes

  // Fault-tolerance outcomes and machinery.
  std::uint64_t deadline_exceeded = 0;  ///< expired in queue or truncated wave
  std::uint64_t degraded = 0;           ///< answered from oracle lb/ub
  std::uint64_t failed_queries = 0;     ///< completed with no usable answer
  std::uint64_t shed_log_overflow = 0;  ///< shed records dropped at the cap
  std::uint64_t deadline_truncated_waves = 0;  ///< waves stopped at budget
  std::uint64_t wave_resumes = 0;       ///< waves resumed from a checkpoint
  std::uint64_t breaker_half_opened = 0;  ///< open -> half-open transitions
  std::uint64_t breaker_closed = 0;       ///< half-open -> closed transitions

  // ---- analytics class (zero unless kAnalytics queries arrive) --------
  // The global counters above cover BOTH classes (arrived/admitted/shed/
  // answered/deadline_exceeded/failed_queries include analytics jobs);
  // the analytics_* fields carve out the analytics share, so the distance
  // class is always the difference.  Only distance reads degrade.
  std::uint64_t analytics_arrived = 0;
  std::uint64_t analytics_admitted = 0;
  std::uint64_t analytics_shed = 0;
  std::uint64_t analytics_answered = 0;
  std::uint64_t analytics_slo_violations = 0;  ///< vs kAnalyticsSloTicks
  std::uint64_t analytics_deadline_exceeded = 0;
  std::uint64_t analytics_failed = 0;    ///< refused by an open breaker
  std::uint64_t analytics_jobs = 0;      ///< kernel executions (memo misses)
  std::uint64_t analytics_memo_hits = 0; ///< memo-store hits: results reused
  std::uint64_t analytics_deferred_ticks = 0;  ///< job waited behind distance load
  std::uint64_t reachability_cutoffs = 0;  ///< oracle settled a pair, no BFS
  std::array<std::uint64_t, kNumAnalyticsKernels> kernel_jobs{};
  /// Kernel-cost breakdown summed over executed jobs (rounds identical on
  /// every rank; items_* are this rank's share — see AnalyticsOutcome).
  std::uint64_t analytics_rounds = 0;
  std::uint64_t analytics_items_sent = 0;
  std::uint64_t analytics_items_applied = 0;
  double analytics_seconds = 0.0;

  // ---- exact point cache (hits..evictions copied from its store) ------
  std::uint64_t point_cache_hits = 0;
  std::uint64_t point_cache_misses = 0;  ///< p2p lookups that found nothing
  std::uint64_t point_cache_inserts = 0;
  std::uint64_t point_cache_evictions = 0;
  std::uint64_t point_persisted = 0;  ///< entries written to the slice store
  std::uint64_t point_restored = 0;   ///< entries adopted from the store

  // ---- streaming mutations (zero unless note_graph_update runs) -------
  std::uint64_t graph_updates = 0;         ///< commits observed
  std::uint64_t update_edges_applied = 0;  ///< undirected effective changes
  /// Scoped-invalidation verdicts: cached root slices / point entries
  /// either proven untouched by the oracle brackets (retained, restamped
  /// to the new version) or dropped.
  std::uint64_t roots_invalidated = 0;
  std::uint64_t roots_retained = 0;
  std::uint64_t points_invalidated = 0;
  std::uint64_t points_retained = 0;
  std::uint64_t memo_invalidated = 0;   ///< whole-graph memo slots dropped
  std::uint64_t slices_refreshed = 0;   ///< landmark slices re-solved
  std::uint64_t wholesale_flushes = 0;  ///< updates with no oracle to scope by

  util::Log2Histogram latency_ticks;     ///< per answered DISTANCE query
  util::Log2Histogram analytics_latency_ticks;  ///< per answered analytics job
  util::Log2Histogram batch_occupancy;   ///< queries per dispatched batch
  util::Log2Histogram queue_depth;       ///< distance queue, sampled at every tick()

  double wave_seconds = 0.0;    ///< rank-local time inside waves
  double fetch_seconds = 0.0;   ///< rank-local time inside answer fetches
  double oracle_seconds = 0.0;  ///< rank-local time in bound math / rows

  /// This rank's engine work summed over every dispatched wave; the
  /// pruned counters are what goal-direction saved.
  std::uint64_t wave_relax_generated = 0;
  std::uint64_t wave_relax_sent = 0;
  std::uint64_t wave_pruned_expand = 0;
  std::uint64_t wave_pruned_apply = 0;

  /// Oracle precompute summary (refreshed from the oracle on read;
  /// survives reset_metrics).
  std::uint64_t oracle_landmarks = 0;
  std::uint64_t oracle_precompute_waves = 0;
  double oracle_precompute_seconds = 0.0;

  CacheStats cache;  ///< copied from the root-slice store on read

  /// Accumulate another window's counters (the resilient driver merges
  /// per-attempt harvests across World restarts).  Scalar fields combine
  /// by their MergeRule: all sum, the oracle precompute waves and seconds
  /// too, except oracle_landmarks, which takes `other`'s value.
  /// Histograms merge; the cache's residency/capacity take `other`'s.
  void merge(const ServiceMetrics& other);
};

/// How ServiceMetrics::merge combines a field.
enum class MergeRule : std::uint8_t {
  kAdd,     ///< counters and timers accumulate (a row's default)
  kLatest,  ///< a level, not a count: `other`'s value replaces ours
};

template <typename T>
using ServiceMetricsField = util::Field<ServiceMetrics, T, MergeRule>;

/// Every integer counter of ServiceMetrics with its report key in
/// serve::to_json, where '.' nests (analytics_jobs is reported as
/// classes.analytics.jobs), and its merge rule.
inline constexpr ServiceMetricsField<std::uint64_t> kServiceCounterFields[] = {
    {"arrived", &ServiceMetrics::arrived},
    {"admitted", &ServiceMetrics::admitted},
    {"shed", &ServiceMetrics::shed},
    {"answered", &ServiceMetrics::answered},
    {"slo_violations", &ServiceMetrics::slo_violations},
    {"batches", &ServiceMetrics::batches},
    {"waves", &ServiceMetrics::waves},
    {"pruned_waves", &ServiceMetrics::pruned_waves},
    {"fetch_rounds", &ServiceMetrics::fetch_rounds},
    {"ticks", &ServiceMetrics::ticks},
    {"oracle_exact", &ServiceMetrics::oracle_exact},
    {"oracle_unreachable", &ServiceMetrics::oracle_unreachable},
    {"adaptive_adjustments", &ServiceMetrics::adaptive_adjustments},
    {"deadline_exceeded", &ServiceMetrics::deadline_exceeded},
    {"degraded", &ServiceMetrics::degraded},
    {"failed_queries", &ServiceMetrics::failed_queries},
    {"shed_log_overflow", &ServiceMetrics::shed_log_overflow},
    {"deadline_truncated_waves", &ServiceMetrics::deadline_truncated_waves},
    {"wave_resumes", &ServiceMetrics::wave_resumes},
    {"breaker_half_opened", &ServiceMetrics::breaker_half_opened},
    {"breaker_closed", &ServiceMetrics::breaker_closed},
    {"classes.analytics.arrived", &ServiceMetrics::analytics_arrived},
    {"classes.analytics.admitted", &ServiceMetrics::analytics_admitted},
    {"classes.analytics.shed", &ServiceMetrics::analytics_shed},
    {"classes.analytics.answered", &ServiceMetrics::analytics_answered},
    {"classes.analytics.slo_violations",
     &ServiceMetrics::analytics_slo_violations},
    {"classes.analytics.deadline_exceeded",
     &ServiceMetrics::analytics_deadline_exceeded},
    {"classes.analytics.failed", &ServiceMetrics::analytics_failed},
    {"classes.analytics.jobs", &ServiceMetrics::analytics_jobs},
    {"classes.analytics.memo_hits", &ServiceMetrics::analytics_memo_hits},
    {"classes.analytics.deferred_ticks",
     &ServiceMetrics::analytics_deferred_ticks},
    {"classes.analytics.reachability_cutoffs",
     &ServiceMetrics::reachability_cutoffs},
    {"classes.analytics.rounds", &ServiceMetrics::analytics_rounds},
    {"classes.analytics.items_sent", &ServiceMetrics::analytics_items_sent},
    {"classes.analytics.items_applied",
     &ServiceMetrics::analytics_items_applied},
    {"point_cache.hits", &ServiceMetrics::point_cache_hits},
    {"point_cache.misses", &ServiceMetrics::point_cache_misses},
    {"point_cache.inserts", &ServiceMetrics::point_cache_inserts},
    {"point_cache.evictions", &ServiceMetrics::point_cache_evictions},
    {"point_cache.persisted", &ServiceMetrics::point_persisted},
    {"point_cache.restored", &ServiceMetrics::point_restored},
    {"invalidation.graph_updates", &ServiceMetrics::graph_updates},
    {"invalidation.update_edges_applied",
     &ServiceMetrics::update_edges_applied},
    {"invalidation.roots_invalidated", &ServiceMetrics::roots_invalidated},
    {"invalidation.roots_retained", &ServiceMetrics::roots_retained},
    {"invalidation.points_invalidated", &ServiceMetrics::points_invalidated},
    {"invalidation.points_retained", &ServiceMetrics::points_retained},
    {"invalidation.memo_invalidated", &ServiceMetrics::memo_invalidated},
    {"invalidation.slices_refreshed", &ServiceMetrics::slices_refreshed},
    {"invalidation.wholesale_flushes", &ServiceMetrics::wholesale_flushes},
    {"wave_relax_generated", &ServiceMetrics::wave_relax_generated},
    {"wave_relax_sent", &ServiceMetrics::wave_relax_sent},
    {"wave_pruned_expand", &ServiceMetrics::wave_pruned_expand},
    {"wave_pruned_apply", &ServiceMetrics::wave_pruned_apply},
    {"oracle_landmarks", &ServiceMetrics::oracle_landmarks, MergeRule::kLatest},
    {"oracle_precompute_waves", &ServiceMetrics::oracle_precompute_waves},
};

/// Every floating-point field of ServiceMetrics, keyed and merged as in
/// kServiceCounterFields.
inline constexpr ServiceMetricsField<double> kServiceDoubleFields[] = {
    {"classes.analytics.seconds", &ServiceMetrics::analytics_seconds},
    {"wave_seconds", &ServiceMetrics::wave_seconds},
    {"fetch_seconds", &ServiceMetrics::fetch_seconds},
    {"oracle_seconds", &ServiceMetrics::oracle_seconds},
    {"oracle_precompute_seconds", &ServiceMetrics::oracle_precompute_seconds},
};

class DistanceService {
 public:
  /// `g` is this rank's graph piece; facilities (if any) are validated
  /// against the vertex range here.  When config.oracle.num_landmarks > 0
  /// the constructor is collective: it runs the landmark selection and
  /// precompute waves on every rank (or adopts persisted slices from
  /// fault->oracle_store and runs none).  `fault` is the resilient
  /// driver's per-attempt context (see fault.hpp); it must outlive the
  /// service.  nullptr = no fault machinery beyond deadline handling.
  DistanceService(simmpi::Comm& comm, const graph::DistGraph& g,
                  ServeConfig config, FaultContext* fault = nullptr);

  /// Offer `q` to the admission queue (local bookkeeping, no collectives
  /// — but every rank must observe the same submission sequence).
  /// Returns false when the queue was full and the query was shed (it
  /// lands in shed_log()).  An invalid query throws without touching any
  /// counter.
  bool submit(const Query& q);

  /// Re-admit queries that were already counted as arrived/admitted by a
  /// previous attempt of a resilient run: they enter the queue in order
  /// without touching the arrival counters.  Queue-depth bounds do not
  /// apply (they were already enforced at original admission).
  void restore_backlog(const std::vector<Query>& backlog);

  /// Advance the simulated clock to `now`: samples the queue depth and
  /// dispatches at most one micro-batch if the batch-size or deadline
  /// trigger fires (`flush` forces dispatch of any pending queries, used
  /// for draining).  Collective when a batch dispatches; every rank must
  /// call tick() in lockstep with identical arguments.  `now` must never
  /// move backwards across the service's lifetime (throws
  /// std::invalid_argument; reset_metrics restarts the watermark).
  /// Returns the answers completed this tick, in batch order.
  std::vector<Answer> tick(std::uint64_t now, bool flush = false);

  /// Run tick(now, flush=true) from `start_tick` until the queue is
  /// empty, collecting every answer.  Returns the first idle tick in
  /// `*end_tick` when non-null.
  std::vector<Answer> drain(std::uint64_t start_tick,
                            std::uint64_t* end_tick = nullptr);

  /// Queued queries across both classes (drain() loops until this is 0).
  [[nodiscard]] std::size_t pending() const noexcept {
    return queue_.size() + analytics_queue_.size();
  }

  /// Bound on shed_log() entries: once full, further shed queries are
  /// still counted and rejected but their records are dropped
  /// (ServiceMetrics::shed_log_overflow counts the drops).
  static constexpr std::size_t kShedLogCap = 4096;

  /// Without the adaptive controller a batch dispatches once its oldest
  /// query has waited this many ticks; the controller starts from it.
  static constexpr std::uint64_t kMaxWaitTicks = 4;

  /// Entry bound of the exact point cache (LRU).
  static constexpr std::size_t kPointCacheCap = 1024;

  /// Queries shed so far, in shed order, up to kShedLogCap; the caller
  /// may re-submit them later.
  [[nodiscard]] const std::vector<Query>& shed_log() const noexcept {
    return shed_log_;
  }

  /// Counters with the cache and oracle blocks refreshed.
  [[nodiscard]] const ServiceMetrics& metrics();

  /// Zero the counters and the shed log but keep the cache contents —
  /// the warm-up / measured-phase split every serving benchmark needs.
  /// Also restarts the monotonic-clock watermark so the next measured
  /// phase may begin again at tick 0.
  void reset_metrics();

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

  /// The landmark oracle, or nullptr when disabled.
  [[nodiscard]] const LandmarkOracle* oracle() const noexcept {
    return oracle_ ? &*oracle_ : nullptr;
  }

  /// Dispatch knobs in effect for the next tick (config_.batch_size and
  /// kMaxWaitTicks, or the controller's when adaptive batching is on).
  [[nodiscard]] std::size_t current_batch_size() const noexcept {
    return controller_ ? controller_->batch_size() : config_.batch_size;
  }
  [[nodiscard]] std::uint64_t current_max_wait_ticks() const noexcept {
    return controller_ ? controller_->max_wait_ticks() : kMaxWaitTicks;
  }

  /// Circuit-breaker state (deterministic across ranks; rank 0 harvests
  /// it into the driver's ledger every tick).
  [[nodiscard]] const BreakerStatus& breaker() const noexcept {
    return breaker_;
  }

  /// Graph version the service is currently answering against.
  [[nodiscard]] std::uint64_t graph_version() const noexcept {
    return graph_version_;
  }

  /// Collective: absorb one committed mutation batch.  Call it on every
  /// rank, in lockstep, with the identical CommitSummary, after the
  /// DistGraph the service was constructed over has been rebuilt (i.e.
  /// right after dyn::MutableGraph::commit_batch on the same view).
  ///
  /// With the oracle enabled the invalidation is SCOPED: one collective
  /// row fetch on the OLD landmark slices brackets every applied edge
  /// against every cached root, retaining (and restamping) exactly the
  /// entries whose distances provably cannot have changed —
  ///
  ///   decrease to weight w keeps root r iff for both endpoint orders
  ///     lb(r,u)*(1-slack) + w >= ub(r,v)*(1+slack)
  ///   (no path through the new edge can undercut any old label), and
  ///   delete / increase from old weight w keeps r iff the same holds
  ///   STRICTLY (a tie edge may be load-bearing for attainability) —
  ///
  /// while landmark slices re-solve only when their own (exact) rows show
  /// the edge could lie on one of their shortest paths.  Infinite or
  /// absent bounds fail the test, i.e. fail closed.  Without an oracle
  /// every cached artifact is flushed wholesale.  The analytics memo is
  /// cleared by every commit that changes an edge (kernel digests are
  /// whole-graph); a version-only bump restamps every store.  With an
  /// oracle and a persistence slot, both blobs are re-saved afterwards.
  void note_graph_update(const dyn::CommitSummary& commit);

  /// Serialize the exact point cache into `store.point_blob` (digest
  /// pins format version, graph shape and graph version; trailing
  /// checksum).  The constructor adopts it back behind the same gate,
  /// agreed across ranks.  Counterpart of LandmarkOracle::save.
  void persist_point_cache(OracleSliceStore& store);

 private:
  /// Reserved cache key for the facility wave (delta_stepping_multi over
  /// config_.facilities).  No real root can collide: vertex ids are
  /// < num_vertices.
  [[nodiscard]] graph::VertexId facility_key() const noexcept {
    return graph::kNoVertex;
  }

  /// Run one wave for `key` under `control` (collective): the facility
  /// multi-source wave for the reserved key, otherwise a single-source
  /// wave, which also gets the snapshot slot (checkpointed, possibly
  /// resumed) unless it is pruned.  Handles ledger bookkeeping and wave
  /// metrics.  The complete slice is cached when `cacheable`; a
  /// deadline-truncated one never is, and `*settled_bound` reports the
  /// exactness boundary (infinity when the wave ran to completion).
  [[nodiscard]] Slice dispatch_wave(graph::VertexId key,
                                    core::RunControl control,
                                    bool cacheable, double* settled_bound);

  /// Accumulate one wave's engine counters into the metrics.
  void note_wave(const core::SsspStats& stats);

  /// True when `key`'s retry budget is exhausted for this attempt.
  [[nodiscard]] bool is_abandoned(graph::VertexId key) const noexcept;

  /// Record a shed query, honouring the shed-log cap.
  void log_shed(const Query& q);

  /// The distance micro-batch stage of tick() (batch formation through
  /// answer completion); collective when a batch dispatches.
  void dispatch_distance_batch(std::uint64_t now, bool flush,
                               std::vector<Answer>& answers);

  /// The analytics stage of tick(): at most one job per tick, deferred
  /// behind distance traffic until it ages out (see the scheduler notes
  /// in the header comment).  Collective when a job runs.
  void run_analytics_stage(std::uint64_t now, bool flush,
                           std::vector<Answer>& answers);

  /// Rank-local half of the point-cache adopt gate (see
  /// persist_point_cache); the constructor agrees the verdict by
  /// allreduce so residency never diverges across ranks.
  [[nodiscard]] bool try_adopt_points(const OracleSliceStore& store);

  /// The snapshot slot to pass to a wave on `key`, honouring the
  /// resume-key protection rule (see FaultContext::snapshot).
  [[nodiscard]] core::CheckpointState* snapshot_for(graph::VertexId key)
      const noexcept;

  using PointKey = std::pair<graph::VertexId, graph::VertexId>;

  simmpi::Comm& comm_;
  const graph::DistGraph& g_;
  ServeConfig config_;
  /// Root distance slices (cache_budget_bytes / widest owned slice).
  VersionedStore<graph::VertexId, Slice> cache_;
  /// Exact points: pruned-wave target values keyed (root, target)
  /// (kPointCacheCap entries).
  VersionedStore<PointKey, graph::Weight> points_;
  /// Completed whole-graph kernel outcomes, one per kernel;
  /// reachability is per-pair and never memoized.
  VersionedStore<AnalyticsKernel, AnalyticsOutcome> memo_;
  std::optional<LandmarkOracle> oracle_;
  std::optional<AdaptiveBatchController> controller_;
  KernelRegistry registry_;
  std::deque<Query> queue_;            ///< distance classes (p2p / facility)
  std::deque<Query> analytics_queue_;  ///< kAnalytics jobs, FIFO
  std::vector<Query> shed_log_;
  ServiceMetrics metrics_;
  std::uint64_t arrived_since_tick_ = 0;  ///< controller observation window
  std::optional<std::uint64_t> last_now_;  ///< monotonic-clock watermark
  FaultContext* fault_ = nullptr;          ///< driver-owned; may be nullptr
  BreakerStatus breaker_;  ///< per-rank copy; transitions are deterministic
  /// Live graph version; starts at config_.graph_version, advanced by
  /// note_graph_update.  Identical on every rank (allreduce-agreed
  /// upstream in MutableGraph::commit_batch).
  std::uint64_t graph_version_ = 0;
};

}  // namespace g500::serve
