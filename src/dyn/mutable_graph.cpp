#include "dyn/mutable_graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace g500::dyn {

using graph::LocalId;
using graph::VertexId;
using graph::Weight;

namespace {

/// One directed update op on the wire (both directions of every staged
/// update are routed to the owner of their source, like the builder).
struct DirectedUpdate {
  VertexId src = 0;
  VertexId dst = 0;
  Weight weight = 0.0f;
  std::uint8_t op = 0;
  std::uint8_t pad0 = 0;
  std::uint8_t pad1 = 0;
  std::uint8_t pad2 = 0;
};
static_assert(std::is_trivially_copyable_v<DirectedUpdate>);

/// Globally-gathered applied record (canonical copy only, u < v).
struct AppliedWire {
  VertexId u = 0;
  VertexId v = 0;
  Weight old_weight = 0.0f;
  Weight new_weight = 0.0f;
  std::uint8_t had_old = 0;
  std::uint8_t removed = 0;
  std::uint8_t pad0 = 0;
  std::uint8_t pad1 = 0;
};
static_assert(std::is_trivially_copyable_v<AppliedWire>);

}  // namespace

MutableGraph::MutableGraph(simmpi::Comm& comm, graph::DistGraph base)
    : MutableGraph(comm, std::move(base), Config()) {}

MutableGraph::MutableGraph(simmpi::Comm& comm, graph::DistGraph base,
                           Config config)
    : comm_(comm), config_(config), view_(std::move(base)) {}

void MutableGraph::stage(const EdgeUpdate& update) {
  if (update.u >= view_.num_vertices || update.v >= view_.num_vertices) {
    throw std::out_of_range("MutableGraph::stage: endpoint out of range");
  }
  // A NaN would break the commit's sorts, and a negative weight the
  // engines' correctness; a delete carries no weight.
  if (update.op != UpdateOp::kDelete &&
      !(update.weight >= 0.0f &&
        update.weight != std::numeric_limits<Weight>::infinity())) {
    throw std::invalid_argument(
        "MutableGraph::stage: weight must be finite and non-negative");
  }
  staged_.push_back(update);
  ++stats_.updates_staged;
}

void MutableGraph::stage_insert(VertexId u, VertexId v, Weight w) {
  stage(EdgeUpdate{u, v, w, UpdateOp::kInsert});
}

void MutableGraph::stage_set(VertexId u, VertexId v, Weight w) {
  stage(EdgeUpdate{u, v, w, UpdateOp::kSet});
}

void MutableGraph::stage_delete(VertexId u, VertexId v) {
  stage(EdgeUpdate{u, v, 0.0f, UpdateOp::kDelete});
}

CommitSummary MutableGraph::commit_batch() {
  CommitSummary summary;
  const int P = comm_.size();

  // Route both directions to the owners; drop self-loops (builder rule).
  std::uint64_t self_loops = 0;
  std::vector<std::vector<DirectedUpdate>> out(static_cast<std::size_t>(P));
  for (const auto& up : staged_) {
    if (up.u == up.v) {
      ++self_loops;
      continue;
    }
    const auto op = static_cast<std::uint8_t>(up.op);
    out[static_cast<std::size_t>(view_.part.owner(up.u))].push_back(
        DirectedUpdate{up.u, up.v, up.weight, op});
    out[static_cast<std::size_t>(view_.part.owner(up.v))].push_back(
        DirectedUpdate{up.v, up.u, up.weight, op});
  }
  const std::uint64_t staged_local = staged_.size();
  staged_.clear();
  std::vector<DirectedUpdate> incoming = comm_.alltoallv(out);

  // Merge conflicting ops on the same directed copy: highest precedence
  // wins (kDelete > kSet > kInsert — the enum is ordered that way), ties
  // resolved to the minimum weight of the winning class.  The merge is a
  // semilattice, so the outcome is independent of rank layout and
  // arrival order.
  std::sort(incoming.begin(), incoming.end(),
            [](const DirectedUpdate& a, const DirectedUpdate& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              if (a.op != b.op) return a.op > b.op;
              return a.weight < b.weight;
            });

  // Each effective op becomes one change to splice into the view; like
  // `incoming`, the changes are sorted by (src, dst).
  const graph::LocalCsr& csr = view_.csr;
  const VertexId my_begin = view_.part.begin(comm_.rank());
  std::vector<graph::EdgeChange> changes;
  std::vector<AppliedWire> canonical;
  std::uint64_t inserted = 0, removed = 0, reweighted = 0;

  for (std::size_t i = 0; i < incoming.size();) {
    const DirectedUpdate& head = incoming[i];  // the winning merged op
    std::size_t j = i + 1;
    while (j < incoming.size() && incoming[j].src == head.src &&
           incoming[j].dst == head.dst) {
      ++j;
    }
    i = j;

    // A row holds each neighbour once, so a scan finds the old weight.
    const auto ls = static_cast<LocalId>(head.src - my_begin);
    std::uint64_t e = csr.edges_begin(ls);
    const std::uint64_t row_end = csr.edges_end(ls);
    while (e < row_end && csr.dst(e) != head.dst) ++e;
    const bool had = e < row_end;
    const Weight old_w = had ? csr.weight(e) : 0.0f;
    bool changed = false, is_removal = false;
    Weight new_w = old_w;
    switch (static_cast<UpdateOp>(head.op)) {
      case UpdateOp::kInsert:
        new_w = had ? std::min(old_w, head.weight) : head.weight;
        changed = !had || new_w < old_w;
        break;
      case UpdateOp::kSet:
        new_w = head.weight;
        changed = !had || new_w != old_w;
        break;
      case UpdateOp::kDelete:
        changed = is_removal = had;
        break;
    }
    if (!changed) continue;
    changes.push_back(graph::EdgeChange{ls, head.dst, new_w, is_removal});

    if (is_removal || (had && new_w > old_w)) {
      summary.suspects.push_back(SuspectEdge{head.src, head.dst, old_w});
    }
    // Ops arrive grouped by source, so a repeated seed is the last one.
    if ((!had || new_w < old_w) && (summary.decrease_seeds.empty() ||
                                    summary.decrease_seeds.back() != ls)) {
      summary.decrease_seeds.push_back(ls);
    }
    if (head.src < head.dst) {  // count each undirected change once
      canonical.push_back(AppliedWire{
          head.src, head.dst, old_w, new_w,
          static_cast<std::uint8_t>(had ? 1 : 0),
          static_cast<std::uint8_t>(is_removal ? 1 : 0)});
      if (!had) {
        ++inserted;
      } else if (is_removal) {
        ++removed;
      } else {
        ++reweighted;
      }
    }
  }

  const auto totals = comm_.allreduce_vec<std::uint64_t>(
      {staged_local, self_loops, inserted, removed, reweighted},
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  summary.staged_global = totals[0];
  summary.self_loops_dropped = totals[1];
  summary.inserted = totals[2];
  summary.removed = totals[3];
  summary.reweighted = totals[4];

  // Agree the applied set so every rank can invalidate caches identically.
  std::vector<AppliedWire> applied_global = comm_.allgatherv(canonical);
  std::sort(applied_global.begin(), applied_global.end(),
            [](const AppliedWire& a, const AppliedWire& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  summary.applied.reserve(applied_global.size());
  for (const auto& w : applied_global) {
    summary.applied.push_back(AppliedEdge{w.u, w.v, w.old_weight, w.new_weight,
                                          w.had_old, w.removed});
  }

  // Splice the changes into the view.  The pull index is patched when it
  // indexes every edge, built when the base came without one, and dropped
  // when the options say so: each way yields a fresh build's index.  Hubs
  // keep their (possibly stale) selection until compaction: the hub filter
  // is correct for any vertex set, staleness only costs traffic.
  const bool patch_pull = view_.pull.num_entries() == csr.num_edges();
  view_.csr = csr.splice(changes);
  if (!config_.build.build_pull_index) {
    view_.pull = graph::PullIndex{};
  } else if (patch_pull) {
    view_.pull = view_.pull.splice(changes);
  } else {
    view_.pull = graph::PullIndex::from_csr(view_.csr);
  }
  graph::finish_local(comm_, view_);

  // Keep the TEPS normalizer in step with the effective edge set
  // (saturating: removals can never push it below zero).
  view_.num_input_edges += summary.inserted;
  view_.num_input_edges -=
      std::min<std::uint64_t>(view_.num_input_edges, summary.removed);

  version_ = comm_.allreduce_max(version_ + 1);
  summary.graph_version = version_;

  ++stats_.batches;
  stats_.edges_applied += summary.applied.size();
  stats_.inserted += summary.inserted;
  stats_.removed += summary.removed;
  stats_.reweighted += summary.reweighted;
  stats_.self_loops_dropped += summary.self_loops_dropped;

  ++commits_since_compact_;
  if (config_.compact_every > 0 &&
      commits_since_compact_ >= config_.compact_every) {
    compact();
    summary.compacted = true;
  }
  return summary;
}

void MutableGraph::compact() {
  // A committed view equals a fresh build of its edges except for the hub
  // list, so re-selecting hubs is all a rebuild through the builder would
  // change.
  graph::select_hubs(
      comm_, view_.part, view_.csr,
      graph::resolved_hub_count(config_.build, view_.num_vertices),
      view_.hubs, view_.hub_degrees);
  commits_since_compact_ = 0;
  ++stats_.compactions;
}

}  // namespace g500::dyn
