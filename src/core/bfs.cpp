#include "core/bfs.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/radix_sort.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::kNoVertex;
using graph::LocalId;
using graph::VertexId;

namespace {

/// (child, parent) message of a top-down round.
struct Visit {
  VertexId child;
  VertexId parent;
};

class BitmapFrontier {
 public:
  explicit BitmapFrontier(VertexId n)
      : words_((static_cast<std::size_t>(n) + 63) / 64, 0) {}

  void set(VertexId v) { words_[v >> 6] |= std::uint64_t{1} << (v & 63); }

  [[nodiscard]] bool test(VertexId v) const {
    return (words_[v >> 6] >> (v & 63)) & 1;
  }

  /// OR-combine across ranks so every rank sees the global frontier.
  void allreduce(simmpi::Comm& comm) {
    words_ = comm.allreduce_vec<std::uint64_t>(
        words_, [](std::uint64_t a, std::uint64_t b) { return a | b; });
  }

  void clear() { std::fill(words_.begin(), words_.end(), 0); }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace

BfsResult bfs(simmpi::Comm& comm, const graph::DistGraph& g, VertexId root,
              const BfsConfig& config, BfsStats* stats) {
  if (root >= g.num_vertices) {
    throw std::out_of_range("bfs: root out of range");
  }
  BfsStats scratch;
  BfsStats& st = stats != nullptr ? *stats : scratch;
  util::Timer total;

  const int rank = comm.rank();
  const auto local_n = static_cast<LocalId>(g.part.count(rank));
  const VertexId my_begin = g.part.begin(rank);

  BfsResult result;
  result.parent.assign(local_n, kNoVertex);
  result.level.assign(local_n, BfsResult::kNoLevel);

  std::vector<LocalId> frontier;
  std::vector<LocalId> next;
  BitmapFrontier bitmap(g.num_vertices);

  // Unexplored out-edges of this rank (the "mu" of Beamer's heuristic),
  // maintained incrementally as vertices are visited.
  std::uint64_t unexplored_edges = g.csr.num_edges();

  auto visit = [&](LocalId v, VertexId parent, std::uint32_t level) {
    result.parent[v] = parent;
    result.level[v] = level;
    next.push_back(v);
    unexplored_edges -= g.csr.degree(v);
  };

  if (g.part.owner(root) == rank) {
    visit(g.part.local(root), root, 0);
  }
  frontier.swap(next);

  std::vector<std::vector<Visit>> outbox(static_cast<std::size_t>(comm.size()));
  bool bottom_up = config.direction == Direction::kPull;
  std::uint32_t level = 0;

  while (true) {
    std::uint64_t frontier_edges = 0;
    for (const auto v : frontier) frontier_edges += g.csr.degree(v);
    const auto totals = comm.allreduce_vec<std::uint64_t>(
        {static_cast<std::uint64_t>(frontier.size()), frontier_edges,
         unexplored_edges},
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    if (totals[0] == 0) break;
    ++st.rounds;
    ++level;

    if (config.direction == Direction::kAuto) {
      // Beamer's switch, with his values for power-law graphs: go
      // bottom-up when the frontier's edges outnumber a 1/alpha share of
      // what is left to explore; return to top-down when the frontier
      // thins below n/beta.
      constexpr double kAlpha = 14.0;
      constexpr double kBeta = 24.0;
      if (!bottom_up && totals[1] > totals[2] / kAlpha) {
        bottom_up = true;
      } else if (bottom_up &&
                 totals[0] < static_cast<double>(g.num_vertices) / kBeta) {
        bottom_up = false;
      }
    }

    if (bottom_up) {
      ++st.bottom_up_rounds;
      bitmap.clear();
      for (const auto v : frontier) bitmap.set(my_begin + v);
      bitmap.allreduce(comm);
      for (LocalId v = 0; v < local_n; ++v) {
        if (result.level[v] != BfsResult::kNoLevel) continue;
        for (std::uint64_t e = g.csr.edges_begin(v); e < g.csr.edges_end(v);
             ++e) {
          ++st.edges_scanned;
          if (bitmap.test(g.csr.dst(e))) {
            visit(v, g.csr.dst(e), level);
            break;
          }
        }
      }
    } else {
      ++st.top_down_rounds;
      for (const auto v : frontier) {
        const VertexId via = my_begin + v;
        for (std::uint64_t e = g.csr.edges_begin(v); e < g.csr.edges_end(v);
             ++e) {
          ++st.edges_scanned;
          const VertexId target = g.csr.dst(e);
          const int owner = g.part.owner(target);
          if (owner == rank) {
            const auto lt = g.part.local(target);
            if (result.level[lt] == BfsResult::kNoLevel) {
              visit(lt, via, level);
            }
          } else {
            outbox[static_cast<std::size_t>(owner)].push_back(
                Visit{target, via});
          }
        }
      }
      // Per-destination dedup: one visit per child suffices.
      for (auto& box : outbox) {
        util::keep_least(
            box, [](const Visit& m) { return m.child; },
            [](const Visit& a, const Visit& b) { return a.parent < b.parent; });
        st.messages_sent += box.size();
      }
      const std::vector<Visit> incoming = comm.alltoallv(outbox);
      for (auto& box : outbox) box.clear();
      for (const auto& m : incoming) {
        const auto lv = g.part.local(m.child);
        if (result.level[lv] == BfsResult::kNoLevel) {
          visit(lv, m.parent, level);
        }
      }
    }

    frontier.clear();
    frontier.swap(next);
  }

  st.seconds = total.seconds();
  return result;
}

}  // namespace g500::core
