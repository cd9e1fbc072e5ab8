#include "core/delta_stepping.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/bucket_queue.hpp"
#include "core/checkpoint.hpp"
#include "core/relax.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::kInfDistance;
using graph::kNoVertex;
using graph::LocalId;
using graph::VertexId;
using graph::Weight;

namespace {

/// All per-run state of one rank's engine, templated on the wire record
/// (see with_record).
template <typename Msg>
class Engine {
 public:
  Engine(simmpi::Comm& comm, const graph::DistGraph& g,
         const std::vector<VertexId>& roots, const SsspConfig& config,
         SsspStats& stats, const RunControl& control)
      : comm_(comm),
        ckpt_(control.checkpoint),
        g_(g),
        config_(config),
        control_(control),
        stats_(stats),
        local_n_(static_cast<std::size_t>(g.part.count(comm.rank()))),
        my_begin_(g.part.begin(comm.rank())),
        delta_(config.delta > 0.0 ? config.delta : auto_delta(g)),
        split_(g.csr.delta_split(static_cast<Weight>(delta_))),
        queue_(local_n_),
        dist_(local_n_, kInfDistance),
        parent_(local_n_, kNoVertex),
        r_tag_(local_n_, BucketQueue::kNone),
        router_(g, comm.rank(), dist_, config.hub_cache, config.local_fusion,
                stats),
        outbox_(static_cast<std::size_t>(comm.size())) {
    if (roots.empty()) {
      throw std::invalid_argument("delta_stepping: no roots");
    }
    // The one place that decides which per-run controls combine.  Warm
    // labels come from another run, so a warm start is neither pruned,
    // truncated nor resumed; a pruned run's state is exact only within its
    // budget, so it must never become a snapshot a full run resumes from.
    if (control.warm != nullptr &&
        (control.prune_lb != nullptr || control.deadline_buckets != 0 ||
         ckpt_ != nullptr)) {
      throw std::invalid_argument(
          "delta_stepping: a warm start excludes pruning, a deadline and a "
          "checkpoint");
    }
    if (control.prune_lb != nullptr && ckpt_ != nullptr) {
      throw std::invalid_argument(
          "delta_stepping: a pruned run cannot checkpoint");
    }
    if (control.prune_lb != nullptr && control.prune_lb->size() != local_n_) {
      throw std::invalid_argument(
          "delta_stepping: prune_lb slice does not match the owned range");
    }
    for (const auto root : roots) {
      if (root >= g.num_vertices) {
        throw std::out_of_range("delta_stepping: root out of range");
      }
    }
    // Identity of this run for snapshot matching: the roots, the effective
    // bucket width and the graph shape.  A snapshot from any other run (or
    // a different partition of the same graph) is refused on restore.
    roots_digest_ =
        util::hash_bytes(roots.data(), roots.size() * sizeof(VertexId));
    std::uint64_t delta_bits = 0;
    static_assert(sizeof(delta_bits) == sizeof(delta_));
    std::memcpy(&delta_bits, &delta_, sizeof(delta_bits));
    roots_digest_ = util::hash64(roots_digest_, delta_bits);
    roots_digest_ = util::hash64(roots_digest_, g.num_vertices);
    roots_digest_ = util::hash64(roots_digest_, local_n_);

    if (const WarmStart* warm = control.warm) {
      // Repair mode: adopt the caller's labels and queue only its seeds.
      if (warm->dist.size() != local_n_ || warm->parent.size() != local_n_) {
        throw std::invalid_argument(
            "delta_stepping: warm-start slices do not match the owned range");
      }
      dist_ = warm->dist;
      parent_ = warm->parent;
      for (const auto root : roots) {
        if (g_.part.owner(root) == comm_.rank() &&
            dist_[g_.part.local(root)] != 0.0f) {
          throw std::invalid_argument(
              "delta_stepping: warm-start root distance must be 0");
        }
      }
      for (const auto v : warm->seeds) {
        if (v >= local_n_ || dist_[v] == kInfDistance) {
          throw std::invalid_argument(
              "delta_stepping: warm-start seed invalid or unreachable");
        }
        queue_.update(v, bucket_of(dist_[v]));
      }
      return;
    }
    for (const auto root : roots) {
      if (g_.part.owner(root) == comm_.rank()) {
        const auto lr = g_.part.local(root);
        dist_[lr] = 0.0f;
        parent_[lr] = root;
        queue_.update(lr, 0);
      }
    }
  }

  SsspResult run() {
    util::Timer total;
    const std::uint64_t rounds_at_start = comm_.stats().rounds();
    std::uint64_t k_hint = try_restore();
    std::uint64_t done = BucketQueue::kNone;  // the bucket processed last
    count_unreached();
    while (true) {
      const std::uint64_t k_local = queue_.next_nonempty(k_hint);
      const std::uint64_t k = comm_.allreduce_min(k_local);
      if (k == BucketQueue::kNone) break;
      // Deadline budget: every rank sees the same allreduce-agreed k and
      // the same local bucket count (epochs are global), so this break is
      // taken (or not) by all ranks in lockstep — no collective skew.
      // Distances strictly below k * delta are already exactly settled.
      if (control_.deadline_buckets != 0 &&
          stats_.buckets_processed >= control_.deadline_buckets) {
        ++stats_.deadline_stops;
        stats_.settled_bound = static_cast<double>(k) * delta_;
        break;
      }
      // A restore never processes a snapshot's bucket again, so bucket
      // `done` is sealed only once the agreed scan has moved past it, and
      // only while the run goes on: a run that ended or stopped above
      // clears the slot unread.
      if (done != BucketQueue::kNone && k > done) maybe_checkpoint(done);
      ++stats_.buckets_processed;
      if (config_.max_buckets != 0 &&
          stats_.buckets_processed > config_.max_buckets) {
        throw std::runtime_error("delta_stepping: max_buckets exceeded");
      }
      process_bucket(k);
      // The scan resumes at k: a heavy edge of weight float(delta) or more
      // can still yield a candidate that bucket_of, dividing in double,
      // places in bucket k, and then bucket k runs again.
      done = k_hint = k;
    }
    stats_.total_seconds = total.seconds();
    stats_.global_collectives = comm_.stats().rounds() - rounds_at_start;
    // A completed run's snapshot must not leak into the next one.
    if (ckpt_ != nullptr) ckpt_->clear();

    SsspResult result;
    result.dist = std::move(dist_);
    result.parent = std::move(parent_);
    return result;
  }

 private:
  // -------------------------------------------------------------- setup

  [[nodiscard]] std::uint64_t light_edges(LocalId v) const {
    return split_->light_degree(v);
  }
  /// First heavy edge index of owned vertex v's row.
  [[nodiscard]] std::uint64_t heavy_begin(LocalId v) const {
    return g_.csr.edges_begin(v) + split_->light_degree(v);
  }
  [[nodiscard]] std::uint64_t heavy_edges(LocalId v) const {
    return g_.csr.edges_end(v) - heavy_begin(v);
  }

  /// Count the light and heavy edges of the owned vertices no path reaches
  /// yet, once the distances are set (fresh, warm or restored).
  void count_unreached() {
    unreached_light_ = 0;
    unreached_heavy_ = 0;
    for (LocalId v = 0; v < static_cast<LocalId>(local_n_); ++v) {
      if (dist_[v] == kInfDistance) {
        unreached_light_ += light_edges(v);
        unreached_heavy_ += heavy_edges(v);
      }
    }
  }

  /// The light or heavy part of owned vertex v's row: the light part from
  /// the split's packed arrays, the heavy part from the CSR itself.
  struct RowPart {
    const VertexId* dst;
    const Weight* w;
    std::uint64_t size;
  };
  [[nodiscard]] RowPart row_part(LocalId v, bool light) const {
    if (light) {
      const std::uint64_t first = split_->light_offsets[v];
      return {split_->light_dst.data() + first, split_->light_w.data() + first,
              split_->light_offsets[v + 1] - first};
    }
    const std::uint64_t first = heavy_begin(v);
    return {g_.csr.adjacency().data() + first, g_.csr.weights().data() + first,
            g_.csr.edges_end(v) - first};
  }

  // ------------------------------------------------------------ relaxing

  [[nodiscard]] std::uint64_t bucket_of(Weight d) const {
    return static_cast<std::uint64_t>(static_cast<double>(d) / delta_);
  }

  /// The least distance bucket_of places in bucket k or beyond.  It is
  /// monotone, so while bucket k runs every distance below this is final.
  [[nodiscard]] Weight bucket_floor(std::uint64_t k) const {
    auto d = static_cast<Weight>(static_cast<double>(k) * delta_);
    while (d > 0.0f && bucket_of(std::nextafter(d, 0.0f)) >= k) {
      d = std::nextafter(d, 0.0f);
    }
    while (bucket_of(d) < k) d = std::nextafter(d, kInfDistance);
    return d;
  }

  /// Goal-directed pruning test: can a path reaching owned vertex `v` at
  /// distance `base` still improve the query target within budget?  False
  /// when pruning is off.  Written so NaN/infinity compare conservatively
  /// (an infinite bound at an unreachable v prunes; an infinite budget
  /// never does).
  [[nodiscard]] bool pruned(LocalId v, Weight base) const {
    return control_.prune_lb != nullptr &&
           base + (*control_.prune_lb)[v] > control_.prune_budget;
  }

  /// Apply a candidate to an owned vertex.  Returns true if it improved.
  bool relax_local(LocalId v, Weight cand, VertexId via) {
    if (!(cand < dist_[v])) return false;
    if (pruned(v, cand)) {
      ++stats_.pruned_apply;
      return false;
    }
    if (dist_[v] == kInfDistance) {
      unreached_light_ -= light_edges(v);
      unreached_heavy_ -= heavy_edges(v);
    }
    dist_[v] = cand;
    parent_[v] = via;
    queue_.update(v, bucket_of(cand));
    ++stats_.relax_applied;
    return true;
  }

  // -------------------------------------------------------- bucket logic

  /// Should a round pull instead of push?  Decided from global totals, so
  /// all ranks agree: the frontier's size, the edges a push would relax
  /// from it, and the edges of the still-unreached vertices, whose rows the
  /// owner scan reads in full.  kPull pulls whenever there is an edge to
  /// relax; kPush never asks.
  [[nodiscard]] bool choose_pull(std::uint64_t active_global,
                                 std::uint64_t push_edges_global,
                                 std::uint64_t unreached_edges_global) const {
    constexpr double kPullThreshold = 0.02;  // least frontier share to pull
    constexpr double kPullBias = 1.0;  // push/pull byte ratio; >1 favours push
    if (config_.direction == Direction::kPull) return push_edges_global != 0;
    const double fraction = static_cast<double>(active_global) /
                            static_cast<double>(g_.num_vertices);
    if (fraction < kPullThreshold) return false;
    const double push_edges = static_cast<double>(push_edges_global);
    const double push_bytes = push_edges * sizeof(RelaxRequest);
    const double pull_bytes = static_cast<double>(active_global) *
                              sizeof(FrontierEntry) *
                              static_cast<double>(comm_.size());
    return push_bytes > pull_bytes * kPullBias &&
           push_edges > static_cast<double>(unreached_edges_global);
  }

  void push_round(const std::vector<LocalId>& active, bool light) {
    const auto apply = [this](LocalId v, Weight cand, VertexId via) {
      relax_local(v, cand, via);
    };
    const auto send = [this](int owner, const Msg& m) {
      outbox_[static_cast<std::size_t>(owner)].push_back(m);
    };
    for (const auto v : active) {
      // A vertex whose best continuation toward the query target already
      // exceeds the budget cannot lie on a path that improves the answer;
      // skipping its expansion is where goal-directed pruning saves edge
      // relaxations and wire traffic.
      if (pruned(v, dist_[v])) {
        ++stats_.pruned_expand;
        continue;
      }
      const RowPart part = row_part(v, light);
      const Weight d = dist_[v];
      const VertexId via = my_begin_ + v;
      for (std::uint64_t i = 0; i < part.size; ++i) {
        router_.route(part.dst[i], d + part.w[i], via, apply, send);
      }
    }
    exchange(comm_, g_.part, outbox_, config_.coalesce,
             config_.hierarchical_group, stats_, apply);
  }

  /// Broadcast `active` (less pruned vertices) of bucket k; then every
  /// rank relaxes each owned vertex from the frontier through the light or
  /// heavy part of its own row, which lists its incoming edges because the
  /// graph is symmetric.  Rows are weight-sorted, so a scan stops at the
  /// first edge on which even the nearest frontier vertex cannot reach the
  /// best candidate.  Among equal candidates the smallest source wins.
  /// Only the phase's row list is walked: a final vertex leaves it for the
  /// rest of the run, and a row whose first edge already fails the stop
  /// rule is not opened.  Both would scan nothing.
  void pull_round(std::uint64_t k, const std::vector<LocalId>& active,
                  bool light) {
    std::vector<FrontierEntry> frontier;
    frontier.reserve(active.size());
    for (const auto v : active) {
      if (pruned(v, dist_[v])) {
        ++stats_.pruned_expand;
        continue;
      }
      frontier.push_back(FrontierEntry{my_begin_ + v, dist_[v]});
    }
    stats_.frontier_broadcast += frontier.size();
    const std::vector<FrontierEntry> global = comm_.allgatherv(frontier);
    if (global.empty()) return;
    if (front_dist_.empty()) front_dist_.assign(g_.num_vertices, kInfDistance);
    Weight dmin = kInfDistance;
    for (const auto& fe : global) {
      front_dist_[fe.vertex] = fe.dist;
      dmin = std::min(dmin, fe.dist);
    }
    const Weight settled_below = bucket_floor(k);
    auto& own = light ? light_rows_ : heavy_rows_;
    if (!own) own = light ? split_->light_rows : split_->heavy_rows;
    std::vector<PullRow>& rows = *own;
    std::size_t kept = 0;
    std::uint64_t scanned = 0;
    for (const PullRow row : rows) {
      const LocalId v = row.v;
      Weight best = dist_[v];
      // Final: every frontier distance lies in bucket k, above best.
      if (best < settled_below) continue;
      rows[kept++] = row;
      // The stop rule below, tested on the part's first edge.
      if (dmin + row.w0 > best || pruned(v, dmin + row.w0)) continue;
      const RowPart part = row_part(v, light);
      VertexId via = kNoVertex;
      std::uint64_t i = 0;
      for (; i < part.size; ++i) {
        const Weight w = part.w[i];
        // Float addition rounds monotonically, so from here on no frontier
        // vertex reaches best, over this edge or a heavier one.  A tie at
        // best is still scanned: it may come from a smaller source.  The
        // pruning test is monotone too: once it rejects dmin + w, it
        // rejects every candidate left in the row.
        if (dmin + w > best || pruned(v, dmin + w)) break;
        const VertexId u = part.dst[i];
        // The push path's owner() check, for the same CSR destinations.
        if (u >= g_.num_vertices) {
          throw std::out_of_range("delta_stepping: edge target out of range");
        }
        const Weight cand = front_dist_[u] + w;
        if (cand < best) {
          best = cand;
          via = u;
        } else if (cand == best && via != kNoVertex && u < via) {
          via = u;
        }
      }
      scanned += i;
      if (via != kNoVertex) relax_local(v, best, via);
    }
    rows.resize(kept);
    stats_.relax_generated += scanned;
    for (const auto& fe : global) front_dist_[fe.vertex] = kInfDistance;
  }

  void process_bucket(std::uint64_t k) {
    util::Timer phase;
    util::Timer bucket_timer;
    std::vector<LocalId> settled;     // the R set for the heavy phase
    std::uint64_t settled_heavy = 0;  // heavy edges out of R
    const bool can_pull = config_.direction != Direction::kPush;
    bool heavy_pull = false;
    bool sync_hubs = false;
    BucketTraceRow row;
    row.bucket = k;

    while (true) {
      std::vector<LocalId> active = queue_.extract(k);
      std::uint64_t active_light = 0;  // light edges out of the active set
      for (const auto v : active) {
        if (r_tag_[v] != k) {
          r_tag_[v] = k;
          settled.push_back(v);
          settled_heavy += heavy_edges(v);
        }
        active_light += light_edges(v);
      }
      // R's global size and heavy-edge count ride along for the heavy
      // phase's direction choice, and the unreached vertices' light and
      // heavy edges for both choices; the drained round carries their final
      // values.  Only runs that can pull pay for them.  With the hub cache
      // on, the last word counts the ranks whose mirror contribution moved.
      std::vector<std::uint64_t> sums{active.size(), active_light};
      if (can_pull) {
        sums.insert(sums.end(), {settled.size(), settled_heavy,
                                 unreached_light_, unreached_heavy_});
      }
      if (router_.caches_hubs()) sums.push_back(router_.stale() ? 1 : 0);
      const auto totals = comm_.allreduce_vec<std::uint64_t>(
          sums, [](std::uint64_t a, std::uint64_t b) { return a + b; });
      if (totals[0] == 0) {  // bucket k drained everywhere
        heavy_pull = can_pull && choose_pull(totals[2], totals[3], totals[5]);
        sync_hubs = router_.caches_hubs() && totals.back() != 0;
        break;
      }
      ++stats_.light_iterations;
      ++stats_.sub_rounds;
      ++row.light_rounds;
      row.frontier_total += totals[0];
      stats_.frontier_hist.add(totals[0]);

      if (can_pull && choose_pull(totals[0], totals[1], totals[4])) {
        ++stats_.pull_rounds;
        pull_round(k, active, /*light=*/true);
      } else {
        ++stats_.push_rounds;
        push_round(active, /*light=*/true);
      }
    }
    stats_.light_seconds += phase.seconds();

    if (sync_hubs) router_.tighten(comm_);

    phase.reset();
    ++stats_.heavy_phases;
    ++stats_.sub_rounds;
    // Pulling applies heavy candidates on their owners with no routing or
    // coalescing.  That is safe: the scans read R's broadcast distances,
    // so no candidate applied can change a source distance of the phase.
    if (heavy_pull) {
      ++stats_.pull_rounds;
      pull_round(k, settled, /*light=*/false);
    } else {
      ++stats_.push_rounds;
      push_round(settled, /*light=*/false);
    }
    stats_.heavy_seconds += phase.seconds();

    if (config_.collect_bucket_trace) {
      row.settled = settled.size();
      row.seconds = bucket_timer.seconds();
      stats_.bucket_trace.push_back(row);
    }
  }

  // -------------------------------------------------------- checkpointing

  /// Resume from the installed snapshot if every rank holds a usable one
  /// for the same epoch of the same run.  Returns the bucket to resume
  /// from (0 = fresh start).  Collective: all ranks agree on the outcome.
  std::uint64_t try_restore() {
    if (ckpt_ == nullptr) return 0;
    const bool usable = ckpt_->valid &&
                        ckpt_->roots_digest == roots_digest_ &&
                        ckpt_->dist.size() == local_n_ &&
                        ckpt_->parent.size() == local_n_ &&
                        ckpt_->hub_mirror.size() == router_.mirror().size();
    // All ranks must restore the same epoch or none at all; a token of
    // kNone marks "no snapshot here".
    const std::uint64_t token = usable ? ckpt_->last_bucket : BucketQueue::kNone;
    const std::uint64_t lo = comm_.allreduce_min(token);
    const std::uint64_t hi = comm_.allreduce_max(token);
    if (lo != hi || lo == BucketQueue::kNone) {
      ckpt_->clear();  // stale or partial cut: start fresh everywhere
      return 0;
    }
    ckpt_->verify();  // throws CheckpointError on bit rot

    dist_ = ckpt_->dist;
    parent_ = ckpt_->parent;
    router_.restore_mirror(ckpt_->hub_mirror);
    // The queue is a function of the distances: pending vertices are
    // exactly those whose bucket lies beyond the last drained epoch.
    // Entries the constructor queued below the cursor go stale harmlessly
    // (the scan starts past them and never extracts their buckets).
    for (LocalId v = 0; v < static_cast<LocalId>(local_n_); ++v) {
      if (dist_[v] == kInfDistance) continue;
      const std::uint64_t b = bucket_of(dist_[v]);
      if (b > ckpt_->last_bucket) queue_.update(v, b);
    }
    stats_.buckets_processed = ckpt_->buckets_done;
    ++stats_.restores;
    return ckpt_->last_bucket + 1;
  }

  /// Snapshot after bucket `k` when the interval says so.  Purely local —
  /// every rank reaches the same decision at the same epoch, so the
  /// per-rank snapshots form a consistent global cut without a collective.
  void maybe_checkpoint(std::uint64_t k) {
    if (ckpt_ == nullptr || control_.checkpoint_interval == 0) return;
    if (++buckets_since_ckpt_ < control_.checkpoint_interval) return;
    buckets_since_ckpt_ = 0;
    util::Timer timer;
    ckpt_->roots_digest = roots_digest_;
    ckpt_->last_bucket = k;
    ckpt_->buckets_done = stats_.buckets_processed;
    ckpt_->dist = dist_;
    ckpt_->parent = parent_;
    ckpt_->hub_mirror = router_.mirror();
    ckpt_->seal();
    ++stats_.checkpoints;
    stats_.checkpoint_seconds += timer.seconds();
  }

  // ------------------------------------------------------------- members

  simmpi::Comm& comm_;
  CheckpointState* ckpt_;
  const graph::DistGraph& g_;
  const SsspConfig& config_;
  const RunControl& control_;
  SsspStats& stats_;
  std::uint64_t roots_digest_ = 0;
  std::uint64_t buckets_since_ckpt_ = 0;

  std::size_t local_n_;
  VertexId my_begin_;
  double delta_;

  // The graph's rows split at delta, shared by every solve at that delta.
  std::shared_ptr<const graph::DeltaSplit> split_;
  BucketQueue queue_;
  std::vector<Weight> dist_;
  std::vector<VertexId> parent_;
  std::vector<std::uint64_t> r_tag_;
  // This run's copies of the split's pull row lists, made by the phase's
  // first pull; pulls drop the vertices whose distances are final.
  using PullRow = graph::DeltaSplit::PullRow;
  std::optional<std::vector<PullRow>> light_rows_;
  std::optional<std::vector<PullRow>> heavy_rows_;
  // Broadcast distance per global vertex during a pull, +inf elsewhere;
  // allocated by the first pull of a run.
  std::vector<Weight> front_dist_;
  // Light and heavy edges of owned vertices still at +inf: the rows an
  // owner-side pull would scan in full.
  std::uint64_t unreached_light_ = 0;
  std::uint64_t unreached_heavy_ = 0;

  Router<Msg> router_;
  std::vector<std::vector<Msg>> outbox_;
};

SsspResult run_engine(simmpi::Comm& comm, const graph::DistGraph& g,
                      const std::vector<VertexId>& roots,
                      const SsspConfig& config, SsspStats* stats,
                      const RunControl& control) {
  SsspStats local_stats;
  SsspStats& s = stats != nullptr ? *stats : local_stats;
  return with_record(config, g.num_vertices, [&](auto record) {
    Engine<decltype(record)> engine(comm, g, roots, config, s, control);
    return engine.run();
  });
}

}  // namespace

SsspResult delta_stepping(simmpi::Comm& comm, const graph::DistGraph& g,
                          VertexId root, const SsspConfig& config,
                          SsspStats* stats, const RunControl& control) {
  return run_engine(comm, g, {root}, config, stats, control);
}

SsspResult delta_stepping_multi(simmpi::Comm& comm, const graph::DistGraph& g,
                                const std::vector<VertexId>& roots,
                                const SsspConfig& config, SsspStats* stats,
                                const RunControl& control) {
  return run_engine(comm, g, roots, config, stats, control);
}

SequentialResult gather_result(simmpi::Comm& comm, const graph::DistGraph& g,
                               const SsspResult& mine) {
  // Block partitions are contiguous in rank order, so concatenating the
  // per-rank slices yields globally-indexed vectors directly.
  SequentialResult whole;
  whole.dist = comm.allgatherv(mine.dist);
  whole.parent = comm.allgatherv(mine.parent);
  if (whole.dist.size() != g.num_vertices ||
      whole.parent.size() != g.num_vertices) {
    throw std::logic_error("gather_result: size mismatch");
  }
  return whole;
}

}  // namespace g500::core
