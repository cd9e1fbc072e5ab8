#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/remote.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace g500::serve {

namespace {
/// slot_of sentinel for queries the oracle settles without a fetch.
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// Admission bound of the analytics queue; the distance class keeps
/// ServeConfig::queue_depth to itself, so analytics jobs can never crowd
/// out distance reads at admission.
constexpr std::size_t kAnalyticsQueueDepth = 16;
/// Latency objective of the analytics class (its violations are counted
/// apart from the distance class's ServeConfig::slo_ticks).
constexpr std::uint64_t kAnalyticsSloTicks = 256;
/// Scheduler aging bound: an analytics job waits behind distance traffic
/// for at most this many ticks before it runs anyway.
constexpr std::uint64_t kAnalyticsDeferTicks = 8;

/// The root store charges every slice the widest owned slice, so its
/// capacity (and every residency decision) is rank-independent.
VersionedStore<graph::VertexId, Slice> root_store(std::size_t budget_bytes,
                                                  const graph::DistGraph& g) {
  const std::size_t slice_bytes = g.part.count(0) * sizeof(graph::Weight);
  return VersionedStore<graph::VertexId, Slice>(
      slice_bytes == 0 ? 0 : budget_bytes / slice_bytes, slice_bytes);
}
}  // namespace

DistanceService::DistanceService(simmpi::Comm& comm,
                                 const graph::DistGraph& g, ServeConfig config,
                                 FaultContext* fault)
    : comm_(comm),
      g_(g),
      config_(std::move(config)),
      cache_(root_store(config_.cache_budget_bytes, g)),
      points_(config_.point_cache_cap),
      memo_(kNumAnalyticsKernels),
      registry_(config_.analytics),
      fault_(fault) {
  if (config_.queue_depth == 0) {
    throw std::invalid_argument("DistanceService: queue_depth must be >= 1");
  }
  if (config_.batch_size == 0) {
    throw std::invalid_argument("DistanceService: batch_size must be >= 1");
  }
  if (config_.fault.max_wave_attempts < 1) {
    throw std::invalid_argument(
        "DistanceService: max_wave_attempts must be >= 1");
  }
  for (const auto f : config_.facilities) {
    if (f >= g_.num_vertices) {
      throw std::out_of_range("DistanceService: facility out of range");
    }
  }
  graph_version_ = config_.graph_version;
  if (config_.oracle.num_landmarks > 0) {
    oracle_.emplace(comm_, g_, config_.oracle, config_.sssp, graph_version_,
                    fault_ != nullptr ? fault_->oracle_store : nullptr);
  }
  if (config_.adaptive.enabled) {
    controller_.emplace(config_.adaptive, config_.batch_size,
                        config_.max_wait_ticks);
  }
  if (fault_ != nullptr) breaker_ = fault_->breaker;
  if (fault_ != nullptr && fault_->oracle_store != nullptr) {
    // Exact point-cache adoption, all-or-nothing across ranks for the
    // same reason as the oracle's (residency feeds collective decisions).
    const bool mine = try_adopt_points(*fault_->oracle_store);
    if (comm_.allreduce_or(!mine)) {
      points_.retain_if([](const PointKey&) { return false; },
                        graph_version_);
    } else {
      metrics_.point_restored = points_.stats().resident_entries;
    }
    points_.reset_counters();  // adopted entries are not inserts
  }
}

bool DistanceService::submit(const Query& q) {
  // Validate before counting: a rejected query must leave every metric
  // untouched or ranks that saw the throw disagree with ranks that did not.
  if (q.kind == QueryKind::kNearestFacility && config_.facilities.empty()) {
    throw std::invalid_argument(
        "DistanceService: nearest query without a facility set");
  }
  if (q.kind == QueryKind::kAnalytics) {
    if (q.kernel == AnalyticsKernel::kReachability &&
        (q.root >= g_.num_vertices || q.target >= g_.num_vertices)) {
      throw std::out_of_range(
          "DistanceService: reachability vertex out of range");
    }
  } else if (q.target >= g_.num_vertices ||
             (q.kind == QueryKind::kPointToPoint &&
              q.root >= g_.num_vertices)) {
    throw std::out_of_range("DistanceService: query vertex out of range");
  }
  ++metrics_.arrived;
  ++arrived_since_tick_;
  if (q.kind == QueryKind::kAnalytics) {
    // Analytics jobs have their own bounded queue so they can never crowd
    // distance reads out of admission (and vice versa).
    ++metrics_.analytics_arrived;
    if (analytics_queue_.size() >= kAnalyticsQueueDepth) {
      ++metrics_.shed;
      ++metrics_.analytics_shed;
      if (config_.shed_policy == ShedPolicy::kRejectNew) {
        log_shed(q);
        return false;
      }
      log_shed(analytics_queue_.front());
      analytics_queue_.pop_front();
    }
    ++metrics_.admitted;
    ++metrics_.analytics_admitted;
    analytics_queue_.push_back(q);
    return true;
  }
  if (queue_.size() >= config_.queue_depth) {
    if (config_.shed_policy == ShedPolicy::kRejectNew) {
      ++metrics_.shed;
      log_shed(q);
      return false;
    }
    // kDropOldest: the longest waiter is shed to make room.
    ++metrics_.shed;
    log_shed(queue_.front());
    queue_.pop_front();
  }
  ++metrics_.admitted;
  queue_.push_back(q);
  return true;
}

void DistanceService::log_shed(const Query& q) {
  if (shed_log_.size() >= kShedLogCap) {
    ++metrics_.shed_log_overflow;
    return;
  }
  shed_log_.push_back(q);
}

void DistanceService::restore_backlog(const std::vector<Query>& backlog) {
  for (const auto& q : backlog) {
    if (q.kind == QueryKind::kAnalytics) {
      analytics_queue_.push_back(q);
      continue;
    }
    if (q.target >= g_.num_vertices ||
        (q.kind == QueryKind::kPointToPoint && q.root >= g_.num_vertices)) {
      throw std::out_of_range("DistanceService: backlog vertex out of range");
    }
    queue_.push_back(q);
  }
}

bool DistanceService::is_abandoned(graph::VertexId key) const noexcept {
  return fault_ != nullptr &&
         std::find(fault_->abandoned.begin(), fault_->abandoned.end(), key) !=
             fault_->abandoned.end();
}

core::CheckpointState* DistanceService::snapshot_for(
    graph::VertexId key) const noexcept {
  if (fault_ == nullptr || fault_->snapshot == nullptr) return nullptr;
  // The slot holds a crashed wave's progress: only the matching wave may
  // touch it (any other wave's digest check would clear it).  Once the
  // resume consumed it (the engine clears a completed run's snapshot),
  // every wave can checkpoint into the free slot again.
  if (fault_->snapshot->valid && (!fault_->has_resume || key != fault_->resume_key)) {
    return nullptr;
  }
  return fault_->snapshot;
}

void DistanceService::note_wave(const core::SsspStats& stats) {
  metrics_.wave_relax_generated += stats.relax_generated;
  metrics_.wave_relax_sent += stats.relax_sent;
  metrics_.wave_pruned_expand += stats.pruned_expand;
  metrics_.wave_pruned_apply += stats.pruned_apply;
}

Slice DistanceService::dispatch_wave(graph::VertexId key,
                                     core::RunControl control,
                                     bool cacheable, double* settled_bound) {
  *settled_bound = std::numeric_limits<double>::infinity();
  FaultLedger* ledger = fault_ != nullptr ? fault_->ledger : nullptr;
  if (ledger != nullptr && comm_.rank() == 0) {
    // Rank-0 write between collectives: a crash inside the wave leaves
    // this record intact for the driver's retry attribution.
    ledger->wave_open = true;
    ledger->wave_key = key;
  }
  util::Timer timer;
  core::SsspResult result;
  core::SsspStats stats;
  if (key == facility_key()) {
    result = core::delta_stepping_multi(comm_, g_, config_.facilities,
                                        config_.sssp, &stats, control);
  } else {
    // The engine refuses a pruned run a snapshot slot, so only full
    // single-source waves checkpoint (and resume).
    if (control.prune_lb == nullptr) control.checkpoint = snapshot_for(key);
    result = core::delta_stepping(comm_, g_, key, config_.sssp, &stats,
                                  control);
  }
  metrics_.wave_seconds += timer.seconds();
  ++metrics_.waves;
  note_wave(stats);
  if (stats.restores > 0) ++metrics_.wave_resumes;
  if (ledger != nullptr && comm_.rank() == 0) ledger->wave_open = false;
  auto slice = std::make_shared<const std::vector<graph::Weight>>(
      std::move(result.dist));
  if (stats.deadline_stops > 0) {
    ++metrics_.deadline_truncated_waves;
    *settled_bound = stats.settled_bound;
    // Beyond the settled boundary the slice holds upper bounds only —
    // never cache it.
    return slice;
  }
  // Shared ownership keeps the slice alive for this batch's extraction
  // even if a later insert evicts the entry again.
  if (cacheable) cache_.insert(key, slice, graph_version_);
  return slice;
}

void ServiceMetrics::merge(const ServiceMetrics& other) {
  const auto combine = [&](const auto& fields) {
    for (const auto& f : fields) {
      this->*f.member = f.rule == MergeRule::kLatest
                            ? other.*f.member
                            : this->*f.member + other.*f.member;
    }
  };
  combine(kServiceCounterFields);
  combine(kServiceDoubleFields);
  for (std::size_t k = 0; k < kernel_jobs.size(); ++k) {
    kernel_jobs[k] += other.kernel_jobs[k];
  }
  latency_ticks.merge(other.latency_ticks);
  analytics_latency_ticks.merge(other.analytics_latency_ticks);
  batch_occupancy.merge(other.batch_occupancy);
  queue_depth.merge(other.queue_depth);
  cache.hits += other.cache.hits;
  cache.misses += other.cache.misses;
  cache.inserts += other.cache.inserts;
  cache.evictions += other.cache.evictions;
  cache.rejected += other.cache.rejected;
  cache.version_misses += other.cache.version_misses;
  cache.resident_entries = other.cache.resident_entries;
  cache.resident_bytes = other.cache.resident_bytes;
  cache.capacity_entries = other.cache.capacity_entries;
}

std::vector<Answer> DistanceService::tick(std::uint64_t now, bool flush) {
  if (last_now_ && now < *last_now_) {
    throw std::invalid_argument(
        "DistanceService: tick clock moved backwards");
  }
  last_now_ = now;
  ++metrics_.ticks;
  if (controller_) {
    // The controller sees the offered load (all arrivals since the last
    // tick, shed included) — identical on every rank by the SPMD contract.
    controller_->observe(arrived_since_tick_);
    metrics_.adaptive_adjustments = controller_->adjustments();
  }
  arrived_since_tick_ = 0;

  // Breaker timer: an open breaker half-opens once the cooldown expires,
  // admitting exactly one probe wave this tick.  Deterministic across
  // ranks (pure function of `now` and the carried-in state).
  if (config_.fault.breaker_threshold > 0 &&
      breaker_.state == BreakerState::kOpen &&
      now >= breaker_.opened_tick + config_.fault.breaker_cooldown_ticks) {
    breaker_.state = BreakerState::kHalfOpen;
    ++metrics_.breaker_half_opened;
  }

  std::vector<Answer> answers;

  // ---- deadline sweep: expired waiters complete NOW ------------------
  // Local bookkeeping only (no collectives), so it stays deterministic
  // across ranks and cheap on idle ticks.  Both classes expire the same
  // way; analytics expiries also feed the per-class counter.
  const auto sweep = [&](std::deque<Query>& queue) {
    bool any_expired = false;
    for (const auto& q : queue) {
      if (q.deadline_tick != 0 && now >= q.deadline_tick) {
        any_expired = true;
        break;
      }
    }
    if (!any_expired) return;
    std::deque<Query> keep;
    for (const auto& q : queue) {
      if (q.deadline_tick != 0 && now >= q.deadline_tick) {
        Answer a;
        a.id = q.id;
        a.kind = q.kind;
        a.root = q.root;
        a.target = q.target;
        a.kernel = q.kernel;
        a.distance = graph::kInfDistance;
        a.outcome = Outcome::kDeadlineExceeded;
        a.arrival_tick = q.arrival_tick;
        a.completion_tick = now;
        ++metrics_.deadline_exceeded;
        if (q.kind == QueryKind::kAnalytics) {
          ++metrics_.analytics_deadline_exceeded;
        }
        answers.push_back(a);
      } else {
        keep.push_back(q);
      }
    }
    queue.swap(keep);
  };
  sweep(queue_);
  sweep(analytics_queue_);

  // Distance micro-batch first — the cheap class must keep flowing — then
  // at most one analytics job.
  dispatch_distance_batch(now, flush, answers);
  run_analytics_stage(now, flush, answers);
  // Every answer this tick was computed against the live graph version.
  for (auto& a : answers) a.graph_version = graph_version_;
  return answers;
}

void DistanceService::dispatch_distance_batch(std::uint64_t now, bool flush,
                                              std::vector<Answer>& answers) {
  const std::size_t batch_limit = current_batch_size();
  const std::uint64_t max_wait = current_max_wait_ticks();
  metrics_.queue_depth.add(queue_.size());
  if (queue_.empty()) return;

  const bool deadline = now >= queue_.front().arrival_tick + max_wait;
  const bool full = queue_.size() >= batch_limit;
  if (!flush && !deadline && !full) return;

  // ---- form the batch (FIFO prefix) ----------------------------------
  const std::size_t take = std::min(queue_.size(), batch_limit);
  std::vector<Query> batch(queue_.begin(),
                           queue_.begin() + static_cast<std::ptrdiff_t>(take));
  queue_.erase(queue_.begin(), queue_.begin() +
                                   static_cast<std::ptrdiff_t>(take));
  ++metrics_.batches;
  metrics_.batch_occupancy.add(batch.size());

  // ---- exact point cache: earlier pruned waves carry over -------------
  // A pruned slice is exact at its targets even though it never enters the
  // root store; those point values were banked at completion, so a repeat
  // of the same (root, target) pair costs a store lookup here instead of
  // another wave.  Hits skip the oracle pass, dedupe and fetch entirely.
  std::vector<char> from_point(batch.size(), 0);
  std::vector<graph::Weight> point_val(batch.size(), graph::kInfDistance);
  if (config_.point_cache_cap > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind != QueryKind::kPointToPoint) continue;
      if (const graph::Weight* hit = points_.lookup(
              {batch[i].root, batch[i].target}, graph_version_)) {
        from_point[i] = 1;
        point_val[i] = *hit;
      }
    }
  }

  // ---- oracle pass: bound every point-to-point pair ------------------
  // One collective row fetch covers all distinct endpoints; the bound
  // math itself is local.  Exact verdicts (s == t, landmark roots,
  // proven-unreachable pairs) never reach the wave or fetch stages.
  std::vector<LandmarkOracle::Bounds> verdict(batch.size());
  std::vector<std::vector<graph::Weight>> rows;
  std::vector<std::size_t> target_row(batch.size(), 0);
  std::vector<char> direct(batch.size(), 0);
  bool any_p2p = false;
  if (oracle_) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind == QueryKind::kPointToPoint && !from_point[i]) {
        any_p2p = true;
      }
    }
  }
  if (oracle_ && any_p2p) {
    util::Timer oracle_timer;
    std::vector<graph::VertexId> verts;
    const auto index_of = [&verts](graph::VertexId v) {
      for (std::size_t j = 0; j < verts.size(); ++j) {
        if (verts[j] == v) return j;
      }
      verts.push_back(v);
      return verts.size() - 1;
    };
    std::vector<std::size_t> root_row(batch.size(), 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind != QueryKind::kPointToPoint || from_point[i]) continue;
      root_row[i] = index_of(batch[i].root);
      target_row[i] = index_of(batch[i].target);
    }
    rows = oracle_->landmark_distances(verts);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind != QueryKind::kPointToPoint || from_point[i]) continue;
      verdict[i] = oracle_->bounds(rows[root_row[i]], rows[target_row[i]],
                                   batch[i].root, batch[i].target);
      if (verdict[i].exact) {
        direct[i] = 1;
        ++metrics_.oracle_exact;
        if (verdict[i].unreachable) ++metrics_.oracle_unreachable;
      }
    }
    metrics_.oracle_seconds += oracle_timer.seconds();
  }

  // ---- dedupe the remaining queries by resolution key ----------------
  // First-appearance order keeps the collective sequence identical on
  // every rank.
  std::vector<graph::VertexId> keys;
  std::vector<std::vector<std::size_t>> members;
  std::vector<std::uint32_t> slot_of(batch.size(), kNoSlot);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (direct[i] || from_point[i]) continue;
    const graph::VertexId key = batch[i].kind == QueryKind::kNearestFacility
                                    ? facility_key()
                                    : batch[i].root;
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      slot_of[i] = static_cast<std::uint32_t>(keys.size());
      keys.push_back(key);
      members.push_back({i});
    } else {
      slot_of[i] = static_cast<std::uint32_t>(it - keys.begin());
      members[static_cast<std::size_t>(it - keys.begin())].push_back(i);
    }
  }

  // ---- batch deadline budget -----------------------------------------
  // The tightest outstanding deadline in the batch caps every wave this
  // tick: the engine stops cleanly after that many bucket epochs and
  // reports the settled bound (sweep above guarantees deadline_tick > now
  // for everything still queued, so `left` is always >= 1).
  core::RunControl wave_control;
  wave_control.checkpoint_interval = config_.fault.checkpoint_interval;
  if (config_.fault.deadline_buckets_per_tick != 0) {
    std::uint64_t tightest = 0;
    for (const auto& q : batch) {
      if (q.deadline_tick != 0 &&
          (tightest == 0 || q.deadline_tick < tightest)) {
        tightest = q.deadline_tick;
      }
    }
    if (tightest != 0) {
      wave_control.deadline_buckets =
          (tightest - now) * config_.fault.deadline_buckets_per_tick;
    }
  }

  // ---- resolve each group's distance slice ---------------------------
  // Exactly ONE cache lookup per group (the hit/miss accounting must not
  // depend on the oracle or fault machinery).  A group is REFUSED — no
  // wave, empty slice — when its key's retry budget is exhausted or the
  // circuit breaker withholds waves; a half-open breaker admits a single
  // probe wave whose completion closes it.
  std::vector<Slice> slices;
  std::vector<bool> cached;
  std::vector<bool> pruned;
  std::vector<char> refused(keys.size(), 0);
  std::vector<double> bound(keys.size(),
                            std::numeric_limits<double>::infinity());
  bool probe_used = false;
  bool wave_dispatched = false;
  slices.reserve(keys.size());
  for (std::size_t gi = 0; gi < keys.size(); ++gi) {
    const graph::VertexId key = keys[gi];
    const bool p2p = key != facility_key();
    bool from_cache = false;
    bool group_pruned = false;
    Slice slice;
    if (const Slice* hit = cache_.lookup(key, graph_version_)) {
      from_cache = true;
      slice = *hit;
    } else if (is_abandoned(key) || breaker_.state == BreakerState::kOpen ||
               (breaker_.state == BreakerState::kHalfOpen && probe_used)) {
      refused[gi] = 1;
    } else {
      const bool probing = breaker_.state == BreakerState::kHalfOpen;
      if (probing) probe_used = true;
      if (oracle_ && p2p) {
        // Goal-directed pruned wave: admissible toward every target of
        // the group (elementwise-min lb), budgeted by the loosest upper
        // bound.  A pruned slice is exact only at (and within budget of)
        // its targets, so dispatch_wave never caches it.
        util::Timer oracle_timer;
        auto lb = oracle_->lb_slice(rows[target_row[members[gi][0]]]);
        graph::Weight budget = oracle_->budget(verdict[members[gi][0]].ub);
        for (std::size_t m = 1; m < members[gi].size(); ++m) {
          const std::size_t qi = members[gi][m];
          oracle_->min_into_lb_slice(lb, rows[target_row[qi]]);
          budget = std::max(budget, oracle_->budget(verdict[qi].ub));
        }
        metrics_.oracle_seconds += oracle_timer.seconds();
        core::RunControl pruned_control = wave_control;
        pruned_control.prune_lb = &lb;
        pruned_control.prune_budget = budget;
        slice = dispatch_wave(key, pruned_control, /*cacheable=*/false,
                              &bound[gi]);
        ++metrics_.pruned_waves;
        group_pruned = true;
      } else {
        slice = dispatch_wave(key, wave_control, /*cacheable=*/true,
                              &bound[gi]);
      }
      wave_dispatched = true;
      if (probing) {
        // The probe wave came back: close the breaker.
        breaker_.state = BreakerState::kClosed;
        breaker_.consecutive_failures = 0;
        ++metrics_.breaker_closed;
      }
    }
    slices.push_back(std::move(slice));
    cached.push_back(from_cache);
    pruned.push_back(group_pruned);
  }
  // Any wave that came back alive ends the failure streak (the driver
  // increments it on crashes; a completed tick's harvest carries this
  // reset back to the ledger).
  if (wave_dispatched) breaker_.consecutive_failures = 0;

  // ---- one batched exchange answers every remaining query ------------
  // Refused groups hold null slices; their members skip the fetch (no
  // query ever references those slots, identically on every rank).
  std::vector<core::SlotQuery> fetches;
  std::vector<std::size_t> fetch_idx(batch.size(), 0);
  fetches.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (direct[i] || from_point[i] || refused[slot_of[i]]) continue;
    fetch_idx[i] = fetches.size();
    fetches.push_back(core::SlotQuery{slot_of[i], batch[i].target});
  }
  std::vector<const std::vector<graph::Weight>*> slots;
  slots.reserve(slices.size());
  for (const auto& s : slices) slots.push_back(s.get());
  util::Timer fetch_timer;
  const auto distances =
      core::fetch_values_batched(comm_, g_.part, fetches, slots);
  metrics_.fetch_seconds += fetch_timer.seconds();
  ++metrics_.fetch_rounds;

  // ---- complete ------------------------------------------------------
  answers.reserve(answers.size() + batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Answer a;
    a.id = batch[i].id;
    a.kind = batch[i].kind;
    a.root = batch[i].root;
    a.target = batch[i].target;
    a.arrival_tick = batch[i].arrival_tick;
    a.completion_tick = now;
    if (from_point[i]) {
      a.distance = point_val[i];
      a.from_point_cache = true;
      a.lb = a.ub = a.distance;
    } else if (direct[i]) {
      a.distance = verdict[i].ub;
      a.from_oracle = true;
      a.lb = a.ub = a.distance;
    } else if (refused[slot_of[i]]) {
      if (config_.fault.degraded_answers && oracle_ &&
          batch[i].kind == QueryKind::kPointToPoint &&
          std::isfinite(verdict[i].ub)) {
        // Graceful degradation: answer from the oracle's bracket with the
        // witness-path upper bound as the estimate.  Opt-in only.
        a.distance = verdict[i].ub;
        a.lb = verdict[i].lb;
        a.ub = verdict[i].ub;
        a.outcome = Outcome::kDegraded;
        a.from_oracle = true;
        ++metrics_.degraded;
      } else {
        a.distance = graph::kInfDistance;
        a.outcome = Outcome::kFailed;
        ++metrics_.failed_queries;
      }
    } else {
      a.distance = distances[fetch_idx[i]];
      a.from_cache = cached[slot_of[i]];
      a.pruned_wave = pruned[slot_of[i]];
      const double b = bound[slot_of[i]];
      if (std::isinf(b) || static_cast<double>(a.distance) < b) {
        // Complete wave (an infinite bound: even an unreachable target's
        // +infinity is exact), or a truncated one that still settled this
        // target exactly (dist < settled bound).
        a.lb = a.ub = a.distance;
      } else {
        // Truncated wave and the target sits past the settled boundary:
        // the fetched value is only an upper bound.
        a.outcome = Outcome::kDeadlineExceeded;
        a.lb = static_cast<graph::Weight>(b);
        a.ub = a.distance;
        ++metrics_.deadline_exceeded;
      }
    }
    if (a.outcome == Outcome::kServed) {
      ++metrics_.answered;
      metrics_.latency_ticks.add(a.latency_ticks());
      if (a.latency_ticks() > config_.slo_ticks) ++metrics_.slo_violations;
      if (a.pruned_wave) {
        // Bank the carry-over: the pruned slice is exact at this target
        // even though the slice itself was never cacheable.
        points_.insert({a.root, a.target}, a.distance, graph_version_);
      }
    }
    answers.push_back(a);
  }
}

void DistanceService::run_analytics_stage(std::uint64_t now, bool flush,
                                          std::vector<Answer>& answers) {
  if (analytics_queue_.empty()) return;
  // Scheduler policy: an analytics job runs only when it has aged past the
  // defer bound, the distance queue has gone idle, or the tick is a flush
  // — and never more than one per tick, so a burst of jobs cannot lock
  // the wave engine away from distance batches.
  const bool aged =
      now >= analytics_queue_.front().arrival_tick + kAnalyticsDeferTicks;
  if (!flush && !aged && !queue_.empty()) {
    ++metrics_.analytics_deferred_ticks;
    return;
  }
  const Query q = analytics_queue_.front();
  analytics_queue_.pop_front();

  Answer a;
  a.id = q.id;
  a.kind = q.kind;
  a.root = q.root;
  a.target = q.target;
  a.kernel = q.kernel;
  a.arrival_tick = q.arrival_tick;
  a.completion_tick = now;

  if (breaker_.state == BreakerState::kOpen) {
    // An open breaker withholds analytics collectives just like waves;
    // jobs don't probe (a cheap distance wave is the better canary).
    a.distance = graph::kInfDistance;
    a.outcome = Outcome::kFailed;
    ++metrics_.failed_queries;
    ++metrics_.analytics_failed;
    answers.push_back(a);
    return;
  }

  const bool memoizable = q.kernel != AnalyticsKernel::kReachability;
  const AnalyticsOutcome* memo =
      memoizable ? memo_.lookup(q.kernel, graph_version_) : nullptr;
  AnalyticsOutcome out;
  if (memo != nullptr) {
    // A completed whole-graph run on this graph version answers every
    // later job of the same kernel without a collective.
    out = *memo;
    a.from_cache = true;
  } else {
    out = registry_.run(comm_, g_, q.kernel, q.root, q.target,
                        oracle_ ? &*oracle_ : nullptr, /*iter_budget=*/0);
    ++metrics_.analytics_jobs;
    ++metrics_.kernel_jobs[static_cast<std::size_t>(q.kernel)];
    metrics_.analytics_rounds += out.rounds;
    metrics_.analytics_items_sent += out.items_sent;
    metrics_.analytics_items_applied += out.items_applied;
    metrics_.analytics_seconds += out.seconds;
    if (out.oracle_short_circuit) ++metrics_.reachability_cutoffs;
    if (memoizable) memo_.insert(q.kernel, out, graph_version_);
  }

  a.value = out.value;
  a.digest = out.digest;
  a.lb = a.ub = a.distance;
  ++metrics_.answered;
  ++metrics_.analytics_answered;
  metrics_.analytics_latency_ticks.add(a.latency_ticks());
  if (a.latency_ticks() > kAnalyticsSloTicks) {
    ++metrics_.analytics_slo_violations;
  }
  answers.push_back(a);
}

void DistanceService::note_graph_update(const dyn::CommitSummary& commit) {
  ++metrics_.graph_updates;
  metrics_.update_edges_applied += commit.edges_applied();
  const std::uint64_t new_version = commit.graph_version;
  // A version-only bump (every staged op merged to a no-op) changed
  // nothing, so every artifact stays exact.  A real change is scoped by
  // the landmark brackets, or flushes everything when there are none.
  const bool changed = !commit.applied.empty();
  const bool scoped = changed && oracle_.has_value();
  if (changed && !scoped) ++metrics_.wholesale_flushes;

  // ---- scoped invalidation -------------------------------------------
  // One collective row fetch on the OLD landmark slices covers every
  // vertex the verdicts need: the applied edges' endpoints, every cached
  // root, every point-cache root.  Store residency and the commit are
  // agreed state, so the sorted-unique list is identical on every rank
  // and so is every verdict derived from the fetched rows.
  util::Timer oracle_timer;
  std::vector<graph::VertexId> verts;
  std::vector<std::vector<graph::Weight>> rows;
  if (scoped) {
    for (const auto& e : commit.applied) {
      verts.push_back(e.u);
      verts.push_back(e.v);
    }
    for (const auto r : cache_.keys()) {
      if (r != facility_key()) verts.push_back(r);
    }
    for (const auto& key : points_.keys()) verts.push_back(key.first);
    std::sort(verts.begin(), verts.end());
    verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
    rows = oracle_->landmark_distances(verts);
  }
  const auto row_of = [&verts](graph::VertexId v) {
    return static_cast<std::size_t>(
        std::lower_bound(verts.begin(), verts.end(), v) - verts.begin());
  };

  // Classify each applied edge: a decrease (insert, or set below the old
  // weight) can only create shorter paths THROUGH the edge; a delete or
  // increase can only matter where the OLD edge was load-bearing.
  struct EdgeCase {
    std::size_t u_row = 0;
    std::size_t v_row = 0;
    graph::VertexId u = 0;
    graph::VertexId v = 0;
    bool decrease = false;
    graph::Weight dec_w = 0.0f;  ///< new weight
    bool increase = false;
    graph::Weight inc_w = 0.0f;  ///< old weight
  };
  std::vector<EdgeCase> cases;
  std::vector<std::size_t> flagged;  ///< landmark slices to re-solve
  if (scoped) {
    cases.reserve(commit.applied.size());
    for (const auto& e : commit.applied) {
      EdgeCase c;
      c.u = e.u;
      c.v = e.v;
      c.u_row = row_of(e.u);
      c.v_row = row_of(e.v);
      if (e.removed != 0) {
        c.increase = true;
        c.inc_w = e.old_weight;
      } else if (e.had_old == 0) {
        c.decrease = true;
        c.dec_w = e.new_weight;
      } else if (e.new_weight < e.old_weight) {
        c.decrease = true;
        c.dec_w = e.new_weight;
      } else if (e.new_weight > e.old_weight) {
        c.increase = true;
        c.inc_w = e.old_weight;
      }
      cases.push_back(c);
    }
    // Landmark slices: the fetched rows ARE the oracle's own labels, so
    // the flag test is exact arithmetic, not a bracket.  A slice
    // re-solves only when the edge could lie on one of ITS shortest paths
    // (infinite arithmetic handles reachability changes: finite + w < inf
    // flags the slice that just gained a reachable region).
    for (std::size_t k = 0; k < oracle_->landmarks().size(); ++k) {
      bool need = false;
      for (const auto& c : cases) {
        const graph::Weight du = rows[c.u_row][k];
        const graph::Weight dv = rows[c.v_row][k];
        if (!std::isfinite(du) && !std::isfinite(dv)) continue;
        if (c.decrease && (du + c.dec_w < dv || dv + c.dec_w < du)) {
          need = true;
          break;
        }
        if (c.increase && (du + c.inc_w <= dv || dv + c.inc_w <= du)) {
          need = true;
          break;
        }
      }
      if (need) flagged.push_back(k);
    }
  }

  // Root retention bracket (see the header): r's entire distance vector
  // is provably unchanged iff every applied edge passes.  Slack margins
  // absorb float rounding; infinite or absent bounds fail the test, so
  // uncertainty always lands on the invalidate side.  An edge both of
  // whose endpoints are PROVEN outside r's component can never matter.
  constexpr double slack = LandmarkOracle::kPruneSlack;
  const auto lo = [](graph::Weight lb) {
    return static_cast<double>(lb) * (1.0 - slack);
  };
  const auto hi = [](graph::Weight ub) {
    return static_cast<double>(ub) * (1.0 + slack);
  };
  const auto bracket = [&](graph::VertexId r) {
    const auto& row_r = rows[row_of(r)];
    for (const auto& c : cases) {
      const auto bu = oracle_->bounds(row_r, rows[c.u_row], r, c.u);
      const auto bv = oracle_->bounds(row_r, rows[c.v_row], r, c.v);
      if (bu.unreachable && bv.unreachable) continue;
      const double wu = lo(bu.lb);
      const double wv = lo(bv.lb);
      if (c.decrease) {
        const double w = static_cast<double>(c.dec_w);
        if (!(wu + w >= hi(bv.ub) && wv + w >= hi(bu.ub))) return false;
      }
      if (c.increase) {
        // Strict: a tie edge may be load-bearing for attainability.
        const double w = static_cast<double>(c.inc_w);
        if (!(wu + w > hi(bv.ub) && wv + w > hi(bu.ub))) return false;
      }
    }
    return true;
  };
  // keeps(r): every distance from r provably survived the commit.  The
  // facility slice is a multi-source wave the per-root bracket does not
  // cover, so only a version-only bump keeps it.
  std::map<graph::VertexId, bool> verdict;
  const auto keeps = [&](graph::VertexId r) {
    if (!changed) return true;
    if (!scoped || r == facility_key()) return false;
    const auto it = verdict.find(r);
    if (it != verdict.end()) return it->second;
    const bool ok = bracket(r);
    verdict.emplace(r, ok);
    return ok;
  };

  // One pass per store: survivors are restamped, the rest dropped.  A
  // point d(r, t) is unchanged whenever r's whole vector is; whole-graph
  // kernel memos survive only a version-only bump.
  const auto roots = cache_.retain_if(keeps, new_version);
  const auto points = points_.retain_if(
      [&keeps](const PointKey& key) { return keeps(key.first); },
      new_version);
  const auto memo = memo_.retain_if(
      [changed](AnalyticsKernel) { return !changed; }, new_version);
  if (changed) {
    metrics_.roots_retained += roots.kept;
    metrics_.points_retained += points.kept;
  }
  metrics_.roots_invalidated += roots.dropped;
  metrics_.points_invalidated += points.dropped;
  metrics_.memo_invalidated += memo.dropped;

  if (scoped) metrics_.oracle_seconds += oracle_timer.seconds();
  graph_version_ = new_version;
  if (!oracle_) return;
  metrics_.slices_refreshed += oracle_->refresh_slices(flagged, new_version);

  // Keep the persistence slot current: a restart must adopt artifacts of
  // THIS version or recompute, never resurrect pre-mutation state.
  if (fault_ != nullptr && fault_->oracle_store != nullptr) {
    oracle_->save(*fault_->oracle_store);
    persist_point_cache(*fault_->oracle_store);
  }
}

void DistanceService::persist_point_cache(OracleSliceStore& store) {
  BlobWriter out(store.point_blob);
  out.put(util::hash64(OracleSliceStore::kFormatVersion, g_.num_vertices,
                       graph_version_));
  const std::size_t count = points_.stats().resident_entries;
  out.put(count);
  // Least recent first, so adoption's in-order inserts rebuild recency.
  points_.for_each([&out](const PointKey& key, graph::Weight distance) {
    out.put(static_cast<std::uint64_t>(key.first));
    out.put(static_cast<std::uint64_t>(key.second));
    std::uint64_t w_bits = 0;
    std::memcpy(&w_bits, &distance, sizeof(graph::Weight));
    out.put(w_bits);
  });
  out.seal();
  metrics_.point_persisted += count;
}

bool DistanceService::try_adopt_points(const OracleSliceStore& store) {
  BlobReader in(store.point_blob);
  std::uint64_t digest = 0;
  std::uint64_t count = 0;
  if (!in.get(digest) ||
      digest != util::hash64(OracleSliceStore::kFormatVersion,
                             g_.num_vertices, config_.graph_version)) {
    return false;
  }
  if (!in.get(count) || count > config_.point_cache_cap) return false;
  if (!in.sealed(3 * count * sizeof(std::uint64_t))) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t r = 0;
    std::uint64_t t = 0;
    std::uint64_t w_bits = 0;
    (void)in.get(r);
    (void)in.get(t);
    (void)in.get(w_bits);
    if (r >= g_.num_vertices || t >= g_.num_vertices) return false;
    graph::Weight w = 0.0f;
    std::memcpy(&w, &w_bits, sizeof(w));
    points_.insert({r, t}, w, graph_version_);
  }
  return true;
}

std::vector<Answer> DistanceService::drain(std::uint64_t start_tick,
                                           std::uint64_t* end_tick) {
  std::vector<Answer> all;
  std::uint64_t now = start_tick;
  while (pending() > 0) {
    auto batch = tick(now++, /*flush=*/true);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  if (end_tick != nullptr) *end_tick = now;
  return all;
}

const ServiceMetrics& DistanceService::metrics() {
  metrics_.cache = cache_.stats();
  const CacheStats& points = points_.stats();
  metrics_.point_cache_hits = points.hits;
  metrics_.point_cache_misses = points.misses;
  metrics_.point_cache_inserts = points.inserts;
  metrics_.point_cache_evictions = points.evictions;
  metrics_.analytics_memo_hits = memo_.stats().hits;
  if (oracle_) {
    metrics_.oracle_landmarks = oracle_->landmarks().size();
    metrics_.oracle_precompute_waves = oracle_->precompute_waves();
    metrics_.oracle_precompute_seconds = oracle_->precompute_seconds();
  }
  return metrics_;
}

void DistanceService::reset_metrics() {
  metrics_ = ServiceMetrics{};
  shed_log_.clear();
  cache_.reset_counters();
  points_.reset_counters();
  memo_.reset_counters();
  arrived_since_tick_ = 0;
  last_now_.reset();
}

}  // namespace g500::serve
