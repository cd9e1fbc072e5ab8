#include "core/async_delta_stepping.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "core/bucket_queue.hpp"
#include "core/delta_stepping.hpp"
#include "core/relax.hpp"
#include "simmpi/aggregator.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::kInfDistance;
using graph::kNoVertex;
using graph::LocalId;
using graph::VertexId;
using graph::Weight;

namespace {

/// Records buffered per destination before a capacity flush ships them.
constexpr std::size_t kAggregatorCapacity = 512;
/// Poll cycles a non-empty buffer may age before a timeout flush ships it
/// regardless of fill level.
constexpr std::uint64_t kAggregatorMaxAge = 4;

/// One rank's asynchronous engine, templated on the wire record (see
/// with_record; the same rule the sync engine uses).
template <typename Msg>
class AsyncEngine {
 public:
  AsyncEngine(simmpi::Comm& comm, const graph::DistGraph& g,
              const std::vector<VertexId>& roots, const SsspConfig& config,
              SsspStats& stats)
      : comm_(comm),
        g_(g),
        config_(config),
        stats_(stats),
        local_n_(static_cast<std::size_t>(g.part.count(comm.rank()))),
        my_begin_(g.part.begin(comm.rank())),
        delta_(config.delta > 0.0 ? config.delta : auto_delta(g)),
        queue_(local_n_),
        dist_(local_n_, kInfDistance),
        parent_(local_n_, kNoVertex),
        router_(g, comm.rank(), dist_, config.hub_cache, config.local_fusion,
                stats),
        agg_(comm, simmpi::AggregatorOptions{kAggregatorCapacity,
                                             kAggregatorMaxAge}) {
    if (roots.empty()) {
      throw std::invalid_argument("async_delta_stepping: no roots");
    }
    for (const auto root : roots) {
      if (root >= g.num_vertices) {
        throw std::out_of_range("async_delta_stepping: root out of range");
      }
    }
    // Flush hook: the aggregator analog of the sync engine's per-round
    // coalescing, then count what actually ships.
    agg_.set_compactor([this](std::vector<Msg>& buf) {
      if (config_.coalesce) stats_.filtered_coalesce += coalesce_min(buf);
      stats_.relax_sent += buf.size();
    });
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
    const simmpi::CommStats& cs = comm_.stats();
    const std::uint64_t rounds0 = cs.rounds();
    const std::uint64_t cap0 = cs.p2p_flush_capacity;
    const std::uint64_t timeout0 = cs.p2p_flush_timeout;

    async_phase();
    settle_sync();

    stats_.total_seconds = total.seconds();
    stats_.global_collectives = cs.rounds() - rounds0;
    stats_.aggregator_flush_capacity = cs.p2p_flush_capacity - cap0;
    stats_.aggregator_flush_timeout = cs.p2p_flush_timeout - timeout0;

    SsspResult result;
    result.dist = std::move(dist_);
    result.parent = std::move(parent_);
    return result;
  }

 private:
  [[nodiscard]] std::uint64_t bucket_of(Weight d) const {
    return static_cast<std::uint64_t>(static_cast<double>(d) / delta_);
  }

  // ------------------------------------------------------------ relaxing

  bool relax_local(LocalId v, Weight cand, VertexId via) {
    if (!(cand < dist_[v])) return false;
    dist_[v] = cand;
    parent_[v] = via;
    const std::uint64_t b = bucket_of(cand);
    queue_.update(v, b);
    hint_ = std::min(hint_, b);
    ++stats_.relax_applied;
    return true;
  }

  void apply(const Msg& m) {
    ++stats_.relax_received;
    relax_local(decode_target(g_.part, m), m.dist,
                static_cast<VertexId>(m.parent));
  }

  /// Route every edge of owned vertex v to `sink`.  Unlike the sync engine
  /// the hub mirror is never tightened by a collective — it only records
  /// candidates this rank itself shipped, which still upper-bounds the
  /// owner's authoritative distance (the invariant the filter needs), just
  /// less tightly.
  template <typename Sink>
  void expand(LocalId v, Sink&& sink) {
    const Weight d = dist_[v];
    const VertexId via = my_begin_ + v;
    const std::uint64_t last = g_.csr.edges_end(v);
    for (std::uint64_t e = g_.csr.edges_begin(v); e < last; ++e) {
      router_.route(
          g_.csr.dst(e), d + g_.csr.weight(e), via,
          [this](LocalId t, Weight cand, VertexId p) {
            relax_local(t, cand, p);
          },
          sink);
    }
  }

  // ---------------------------------------------------------- async phase

  /// Expand every edge of every vertex in bucket k.  No light/heavy split:
  /// without a drained-bucket barrier there is no "settled" set to defer
  /// heavy edges for, and re-expansion on improvement keeps correctness.
  void expand_bucket(std::uint64_t k) {
    for (const auto v : queue_.extract(k)) {
      expand(v, [this](int owner, const Msg& m) { agg_.send(owner, m); });
    }
  }

  void async_phase() {
    std::vector<Msg> inbox;
    while (!agg_.quiescent()) {
      inbox.clear();
      agg_.poll(inbox);
      for (const Msg& m : inbox) apply(m);

      const std::uint64_t k = queue_.next_nonempty(hint_);
      if (k != BucketQueue::kNone) {
        ++stats_.sub_rounds;
        ++stats_.buckets_processed;
        if (config_.max_buckets != 0 &&
            stats_.buckets_processed > config_.max_buckets) {
          throw std::runtime_error(
              "async_delta_stepping: max_buckets exceeded");
        }
        hint_ = k;  // relaxations may refill this very bucket
        expand_bucket(k);
      } else if (inbox.empty()) {
        // Locally idle: ship any buffered residue and drive the
        // termination token; peers may still wake us with new candidates.
        agg_.advance_quiescence();
        std::this_thread::yield();
      }
    }
    // The terminate decision proves no data parcel was in flight, but
    // drain defensively: a stray record here is caught by settle_sync.
    inbox.clear();
    agg_.poll(inbox);
    for (const Msg& m : inbox) apply(m);
  }

  // --------------------------------------------------------- settle phase

  /// Synchronous convergence certification: Bellman-Ford-style rounds over
  /// whatever the async phase left queued, until a global allreduce agrees
  /// the queues are empty everywhere.  Quiescence detection makes this a
  /// single empty round in practice, but the fixed-point guarantee —
  /// distances identical to the synchronous engine — rests on this sweep,
  /// not on the token protocol.
  void settle_sync() {
    std::vector<std::vector<Msg>> outbox(
        static_cast<std::size_t>(comm_.size()));
    const auto send = [&outbox](int owner, const Msg& m) {
      outbox[static_cast<std::size_t>(owner)].push_back(m);
    };
    while (true) {
      const bool work = queue_.next_nonempty(0) != BucketQueue::kNone;
      if (!comm_.allreduce_or(work)) break;
      ++stats_.sub_rounds;
      std::uint64_t k = 0;
      while ((k = queue_.next_nonempty(k)) != BucketQueue::kNone) {
        for (const auto v : queue_.extract(k)) expand(v, send);
      }
      exchange(comm_, g_.part, outbox, config_.coalesce, /*group=*/0, stats_,
               [this](LocalId v, Weight cand, VertexId via) {
                 relax_local(v, cand, via);
               });
    }
  }

  // ------------------------------------------------------------- members

  simmpi::Comm& comm_;
  const graph::DistGraph& g_;
  const SsspConfig& config_;
  SsspStats& stats_;

  std::size_t local_n_;
  VertexId my_begin_;
  double delta_;

  BucketQueue queue_;
  std::uint64_t hint_ = 0;
  std::vector<Weight> dist_;
  std::vector<VertexId> parent_;

  Router<Msg> router_;
  simmpi::Aggregator<Msg> agg_;
};

SsspResult dispatch(simmpi::Comm& comm, const graph::DistGraph& g,
                    const std::vector<VertexId>& roots,
                    const SsspConfig& config, SsspStats* stats) {
  refuse_one_d_switches(config, "async_delta_stepping");
  refuse_switch(config.hierarchical_group > 1, "async_delta_stepping",
                "hierarchical_group > 1");
  SsspStats local_stats;
  SsspStats& s = stats != nullptr ? *stats : local_stats;
  return with_record(config, g.num_vertices, [&](auto record) {
    AsyncEngine<decltype(record)> engine(comm, g, roots, config, s);
    return engine.run();
  });
}

}  // namespace

SsspResult async_delta_stepping(simmpi::Comm& comm, const graph::DistGraph& g,
                                VertexId root, const SsspConfig& config,
                                SsspStats* stats) {
  return dispatch(comm, g, {root}, config, stats);
}

SsspResult async_delta_stepping_multi(simmpi::Comm& comm,
                                      const graph::DistGraph& g,
                                      const std::vector<VertexId>& roots,
                                      const SsspConfig& config,
                                      SsspStats* stats) {
  return dispatch(comm, g, roots, config, stats);
}

}  // namespace g500::core
