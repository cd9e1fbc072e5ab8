#include "core/bfs.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/remote.hpp"
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
  bool bottom_up = false;
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

    if (config.direction_opt) {
      // Beamer's switch: go bottom-up when the frontier's edges outnumber
      // a 1/alpha share of what is left to explore; return to top-down
      // when the frontier thins below n/beta.
      if (!bottom_up && totals[1] > totals[2] / config.alpha) {
        bottom_up = true;
      } else if (bottom_up &&
                 totals[0] < static_cast<double>(g.num_vertices) /
                                 config.beta) {
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

BfsValidationReport validate_bfs(simmpi::Comm& comm,
                                 const graph::DistGraph& g, VertexId root,
                                 const BfsResult& mine) {
  const int rank = comm.rank();
  const auto local_n = static_cast<LocalId>(g.part.count(rank));
  const VertexId my_begin = g.part.begin(rank);

  bool ok = true;
  std::vector<std::string> errors;
  auto fail = [&](const std::string& message) {
    ok = false;
    if (errors.size() < 4) errors.push_back(message);
  };

  std::vector<std::uint32_t> level = mine.level;
  level.resize(local_n, BfsResult::kNoLevel);
  std::vector<VertexId> parent = mine.parent;
  parent.resize(local_n, kNoVertex);
  if (mine.level.size() != local_n || mine.parent.size() != local_n) {
    fail("result size does not match owned vertex count");
  }

  // ---- B1: local consistency -------------------------------------------
  std::uint64_t reachable_local = 0;
  std::uint32_t max_level_local = 0;
  for (LocalId v = 0; v < local_n; ++v) {
    const VertexId gv = my_begin + v;
    const bool has_parent = parent[v] != kNoVertex;
    const bool has_level = level[v] != BfsResult::kNoLevel;
    if (has_level) {
      ++reachable_local;
      max_level_local = std::max(max_level_local, level[v]);
    }
    if (has_parent != has_level) {
      fail("B1: vertex " + std::to_string(gv) +
           " parent/level reachability mismatch");
    }
    if (gv == root) {
      if (parent[v] != root || level[v] != 0) {
        fail("B1: root must be its own parent at level 0");
      }
    } else if (has_parent && parent[v] == gv) {
      fail("B1: non-root vertex " + std::to_string(gv) +
           " is its own parent");
    }
  }

  // ---- Fetch remote levels ----------------------------------------------
  std::vector<VertexId> queries;
  queries.reserve(g.csr.num_edges() + local_n);
  for (std::uint64_t e = 0; e < g.csr.num_edges(); ++e) {
    queries.push_back(g.csr.dst(e));
  }
  for (LocalId v = 0; v < local_n; ++v) {
    if (parent[v] != kNoVertex) queries.push_back(parent[v]);
  }
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  const auto fetched = fetch_values(comm, g.part, queries, level);
  auto level_of = [&](VertexId v) {
    const auto it = std::lower_bound(queries.begin(), queries.end(), v);
    return fetched[static_cast<std::size_t>(it - queries.begin())];
  };

  // ---- B2: every edge spans at most one level; reachability agrees -------
  for (LocalId u = 0; ok && u < local_n; ++u) {
    if (level[u] == BfsResult::kNoLevel) continue;
    for (std::uint64_t e = g.csr.edges_begin(u); e < g.csr.edges_end(u); ++e) {
      const auto lv = level_of(g.csr.dst(e));
      if (lv == BfsResult::kNoLevel) {
        fail("B2: reachable vertex " + std::to_string(my_begin + u) +
             " has unreached neighbour " + std::to_string(g.csr.dst(e)));
        break;
      }
      const auto hi = std::max(level[u], lv);
      const auto lo = std::min(level[u], lv);
      if (hi - lo > 1) {
        fail("B2: edge " + std::to_string(my_begin + u) + "->" +
             std::to_string(g.csr.dst(e)) + " spans more than one level");
        break;
      }
    }
  }

  // ---- B3: tree edges are graph edges spanning exactly one level ---------
  for (LocalId v = 0; ok && v < local_n; ++v) {
    const VertexId gv = my_begin + v;
    const VertexId p = parent[v];
    if (p == kNoVertex || gv == root) continue;
    bool adjacent = false;
    for (std::uint64_t e = g.csr.edges_begin(v); e < g.csr.edges_end(v); ++e) {
      if (g.csr.dst(e) == p) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) {
      fail("B3: parent of " + std::to_string(gv) + " is not adjacent");
      continue;
    }
    if (level_of(p) == BfsResult::kNoLevel) {
      fail("B3: parent of " + std::to_string(gv) + " is unreached");
      continue;
    }
    if (level_of(p) + 1 != level[v]) {
      fail("B3: vertex " + std::to_string(gv) +
           " level is not parent level + 1");
    }
  }

  // ---- aggregate ----------------------------------------------------------
  BfsValidationReport report;
  report.ok = !comm.allreduce_or(!ok);
  report.reachable = comm.allreduce_sum(reachable_local);
  report.max_level = comm.allreduce_max(max_level_local);
  struct ErrorLine {
    char text[160];
  };
  std::vector<ErrorLine> lines;
  for (const auto& msg : errors) {
    ErrorLine line{};
    msg.copy(line.text, sizeof(line.text) - 1);
    lines.push_back(line);
  }
  const auto all = comm.allgatherv(lines);
  for (const auto& line : all) report.errors.emplace_back(line.text);
  return report;
}

}  // namespace g500::core
