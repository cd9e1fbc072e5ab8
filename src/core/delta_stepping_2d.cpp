#include "core/delta_stepping_2d.hpp"

#include <stdexcept>

#include "core/bucket_queue.hpp"
#include "core/delta_stepping.hpp"
#include "core/relax.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::kInfDistance;
using graph::kNoVertex;
using graph::LocalId;
using graph::VertexId;
using graph::Weight;

namespace {

class Engine2D {
 public:
  Engine2D(simmpi::Comm& comm, const graph::Dist2DGraph& g, VertexId root,
           const SsspConfig& config, SsspStats& stats)
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
        r_tag_(local_n_, BucketQueue::kNone),
        frontier_out_(static_cast<std::size_t>(comm.size())),
        candidate_out_(static_cast<std::size_t>(comm.size())) {
    if (root >= g.num_vertices) {
      throw std::out_of_range("delta_stepping_2d: root out of range");
    }
    // Precompute light/heavy splits per source group in the edge block.
    split_.resize(g_.block.num_sources());
    for (std::size_t i = 0; i < g_.block.num_sources(); ++i) {
      split_[i] =
          g_.block.split_at(g_.block.range(i), static_cast<Weight>(delta_));
    }
    // The R ranks in my grid column hold my owned vertices' edges.
    const int me = comm_.rank();
    for (int row = 0; row < g_.grid.rows(); ++row) {
      column_group_.push_back(g_.grid.rank_at(row, g_.grid.col_of(me)));
    }
    if (g_.part.owner(root) == me) {
      const auto lr = g_.part.local(root);
      dist_[lr] = 0.0f;
      parent_[lr] = root;
      queue_.update(lr, 0);
    }
  }

  SsspResult run() {
    util::Timer total;
    std::uint64_t k_hint = 0;
    while (true) {
      const std::uint64_t k_local = queue_.next_nonempty(k_hint);
      const std::uint64_t k = comm_.allreduce_min(k_local);
      if (k == BucketQueue::kNone) break;
      ++stats_.buckets_processed;
      if (config_.max_buckets != 0 &&
          stats_.buckets_processed > config_.max_buckets) {
        throw std::runtime_error("delta_stepping_2d: max_buckets exceeded");
      }
      process_bucket(k);
      // Resume at k: a heavy candidate can round back into it (see
      // delta_stepping), and then bucket k runs again.
      k_hint = k;
    }
    stats_.total_seconds = total.seconds();

    SsspResult result;
    result.dist = std::move(dist_);
    result.parent = std::move(parent_);
    return result;
  }

 private:
  [[nodiscard]] std::uint64_t bucket_of(Weight d) const {
    return static_cast<std::uint64_t>(static_cast<double>(d) / delta_);
  }

  void relax_local(LocalId v, Weight cand, VertexId via) {
    if (!(cand < dist_[v])) return;
    dist_[v] = cand;
    parent_[v] = via;
    queue_.update(v, bucket_of(cand));
    ++stats_.relax_applied;
  }

  /// One frontier broadcast + edge scan + candidate return.  `light`
  /// selects which half of each source group is relaxed.
  void relax_round(const std::vector<LocalId>& active, bool light) {
    // --- 1. owners -> column group: active (vertex, distance) pairs.
    for (const auto v : active) {
      const FrontierEntry entry{my_begin_ + v, dist_[v]};
      for (const int dst : column_group_) {
        frontier_out_[static_cast<std::size_t>(dst)].push_back(entry);
      }
    }
    stats_.frontier_broadcast += active.size() * column_group_.size();
    const std::vector<FrontierEntry> frontier =
        comm_.alltoallv(frontier_out_);
    for (auto& box : frontier_out_) box.clear();

    // --- 2. scan edge groups, emit candidates along the row.
    for (const auto& fe : frontier) {
      std::size_t group = 0;
      const auto range = g_.block.find(fe.vertex, &group);
      if (range.empty()) continue;
      const std::uint64_t first = light ? range.first : split_[group];
      const std::uint64_t last = light ? split_[group] : range.last;
      for (std::uint64_t e = first; e < last; ++e) {
        ++stats_.relax_generated;
        const VertexId target = g_.block.dst(e);
        candidate_out_[static_cast<std::size_t>(g_.part.owner(target))]
            .push_back(RelaxRequest{target, fe.vertex,
                                    fe.dist + g_.block.weight(e)});
      }
    }

    // --- 3. coalesce, ship to the owners, apply.
    exchange(comm_, g_.part, candidate_out_, config_.coalesce,
             config_.hierarchical_group, stats_,
             [this](LocalId v, Weight cand, VertexId via) {
               relax_local(v, cand, via);
             });
  }

  void process_bucket(std::uint64_t k) {
    util::Timer phase;
    std::vector<LocalId> settled;
    while (true) {
      std::vector<LocalId> active = queue_.extract(k);
      for (const auto v : active) {
        if (r_tag_[v] != k) {
          r_tag_[v] = k;
          settled.push_back(v);
        }
      }
      const std::uint64_t total =
          comm_.allreduce_sum<std::uint64_t>(active.size());
      if (total == 0) break;
      ++stats_.light_iterations;
      ++stats_.push_rounds;
      stats_.frontier_hist.add(total);
      relax_round(active, /*light=*/true);
    }
    stats_.light_seconds += phase.seconds();

    phase.reset();
    ++stats_.heavy_phases;
    ++stats_.push_rounds;
    relax_round(settled, /*light=*/false);
    stats_.heavy_seconds += phase.seconds();
  }

  simmpi::Comm& comm_;
  const graph::Dist2DGraph& g_;
  const SsspConfig& config_;
  SsspStats& stats_;

  std::size_t local_n_;
  VertexId my_begin_;
  double delta_;

  BucketQueue queue_;
  std::vector<Weight> dist_;
  std::vector<VertexId> parent_;
  std::vector<std::uint64_t> r_tag_;
  std::vector<std::uint64_t> split_;
  std::vector<int> column_group_;

  std::vector<std::vector<FrontierEntry>> frontier_out_;
  std::vector<std::vector<RelaxRequest>> candidate_out_;
};

}  // namespace

SsspResult delta_stepping_2d(simmpi::Comm& comm, const graph::Dist2DGraph& g,
                             VertexId root, const SsspConfig& config,
                             SsspStats* stats) {
  refuse_one_d_switches(config, "delta_stepping_2d");
  SsspStats scratch;
  Engine2D engine(comm, g, root, config, stats != nullptr ? *stats : scratch);
  return engine.run();
}

}  // namespace g500::core
