#include "core/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "core/bfs.hpp"

namespace g500::core {

using graph::kInfDistance;
using graph::kNoVertex;
using graph::LocalId;
using graph::VertexId;
using graph::Weight;

namespace {

constexpr std::size_t kMaxErrorsPerRank = 4;

class Collector {
 public:
  void fail(const std::string& message) {
    ok_ = false;
    if (errors_.size() < kMaxErrorsPerRank) errors_.push_back(message);
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }

  /// SPMD, two collectives: true unless some rank failed; `errors`
  /// receives every rank's messages in rank order.
  [[nodiscard]] bool verdict(simmpi::Comm& comm,
                             std::vector<std::string>& errors) const {
    struct ErrorLine {
      char text[160];
    };
    std::vector<ErrorLine> lines;
    for (const auto& msg : errors_) {
      ErrorLine line{};
      msg.copy(line.text, sizeof(line.text) - 1);
      lines.push_back(line);
    }
    const bool ok = !comm.allreduce_or(!ok_);
    for (const auto& line : comm.allgatherv(lines)) {
      errors.emplace_back(line.text);
    }
    return ok;
  }

 private:
  bool ok_ = true;
  std::vector<std::string> errors_;
};

std::string describe(const char* check, VertexId v, const std::string& what) {
  std::ostringstream out;
  out << check << " failed at vertex " << v << ": " << what;
  return out.str();
}

}  // namespace

ValidationReport validate_sssp(simmpi::Comm& comm, const graph::DistGraph& g,
                               VertexId root, const SsspResult& mine,
                               double tolerance) {
  Collector c;
  const int rank = comm.rank();
  const VertexId n = g.num_vertices;
  const VertexId my_begin = g.part.begin(rank);
  const auto local_n = static_cast<LocalId>(g.part.count(rank));

  if (mine.dist.size() != local_n || mine.parent.size() != local_n) {
    c.fail("result size does not match owned vertex count");
  }
  // Work on padded copies so a malformed result still keeps every rank's
  // collective sequence in lockstep (the verdict is already a failure).
  std::vector<Weight> dist = mine.dist;
  dist.resize(local_n, kInfDistance);
  std::vector<VertexId> parent = mine.parent;
  parent.resize(local_n, kNoVertex);
  // Block partitions are contiguous in rank order, so the gathered slices
  // are indexed by global vertex id.
  const std::vector<Weight> all_dist = comm.allgatherv(dist);
  const std::vector<VertexId> all_parent = comm.allgatherv(parent);

  // ---- V1: local consistency ------------------------------------------
  std::uint64_t reachable_local = 0;
  if (c.ok()) {
    for (LocalId v = 0; v < local_n; ++v) {
      const VertexId gv = my_begin + v;
      const bool has_parent = parent[v] != kNoVertex;
      const bool has_dist = dist[v] != kInfDistance;
      if (has_dist) ++reachable_local;
      if (has_parent != has_dist) {
        c.fail(describe("V1", gv, "parent/distance reachability mismatch"));
      }
      if (gv == root) {
        if (parent[v] != root || dist[v] != 0.0f) {
          c.fail(describe("V1", gv, "root must be its own parent at dist 0"));
        }
      } else if (has_parent && parent[v] == gv) {
        c.fail(describe("V1", gv, "non-root vertex is its own parent"));
      } else if (has_parent && parent[v] >= n) {
        c.fail(describe("V1", gv,
                        "parent " + std::to_string(parent[v]) +
                            " is out of range"));
      }
      if (has_dist && !(dist[v] >= 0.0f)) {
        c.fail(describe("V1", gv, "negative distance"));
      }
    }
  }

  // ---- V2: no relaxable edge -------------------------------------------
  std::uint64_t edges_checked_local = 0;
  for (LocalId u = 0; c.ok() && u < local_n; ++u) {
    const Weight du = dist[u];
    if (du == kInfDistance) {
      // Unreachable u imposes no forward constraint, but a reachable
      // neighbour would make u reachable: covered when scanning that
      // neighbour's own edges (the graph stores both directions).
      continue;
    }
    for (std::uint64_t e = g.csr.edges_begin(u); e < g.csr.edges_end(u); ++e) {
      ++edges_checked_local;
      const VertexId v = g.csr.dst(e);
      if (v >= n) {
        // Mapped shards are not checked per edge.
        c.fail(describe("V2", my_begin + u,
                        "edge to " + std::to_string(v) + " is out of range"));
        break;
      }
      const Weight dv = all_dist[v];
      // Relax in float, as every engine does: the exact double sum would
      // reject a correct float32 result by the rounding of du + w, which
      // exceeds the tolerance once distances reach 256.
      const Weight relaxed = du + g.csr.weight(e);
      if (dv == kInfDistance ||
          static_cast<double>(dv) - static_cast<double>(relaxed) >
              tolerance) {
        c.fail(describe("V2", my_begin + u,
                        "edge to " + std::to_string(v) + " is still relaxable"));
        break;
      }
    }
  }

  // ---- V3: tree edges are real edges with consistent distances ---------
  // V1 passed on this rank, so every parent read here is in range.
  for (LocalId v = 0; c.ok() && v < local_n; ++v) {
    const VertexId gv = my_begin + v;
    const VertexId p = parent[v];
    if (p == kNoVertex || gv == root) continue;
    const Weight dp = all_dist[p];
    bool found = false;
    for (std::uint64_t e = g.csr.edges_begin(v); e < g.csr.edges_end(v); ++e) {
      if (g.csr.dst(e) != p) continue;
      const double expect =
          static_cast<double>(dp) + static_cast<double>(g.csr.weight(e));
      if (std::fabs(expect - static_cast<double>(dist[v])) <=
          tolerance * std::max(1.0, std::fabs(expect))) {
        found = true;
        break;
      }
    }
    if (!found) {
      c.fail(describe("V3", gv,
                      "no edge to parent " + std::to_string(p) +
                          " matching dist[v] = dist[p] + w"));
    }
  }

  // ---- V4: parent structure is a tree rooted at `root` ------------------
  // Follow each owned reachable vertex's parents through the gathered copy
  // until a vertex known to reach the root.  A vertex joins a chain at most
  // once, so the walk is O(n) and needs no collective.  Revisiting the
  // chain (a cycle), leaving [0, n) or meeting kNoVertex (a stray forest)
  // fails.  Other ranks' parents were not checked by V1 here, so every step
  // is range-checked before it indexes.
  {
    enum : std::uint8_t { kUnknown, kRooted, kOnChain };
    std::vector<std::uint8_t> state(n, kUnknown);
    if (root < n && all_parent[root] == root) state[root] = kRooted;
    std::vector<VertexId> chain;
    bool rooted = true;
    for (LocalId v = 0; v < local_n; ++v) {
      if (parent[v] == kNoVertex) continue;
      chain.clear();
      VertexId x = my_begin + v;
      while (x < n && state[x] == kUnknown) {
        state[x] = kOnChain;
        chain.push_back(x);
        x = all_parent[x];
      }
      if (x >= n || state[x] != kRooted) {
        rooted = false;
        break;
      }
      for (const VertexId y : chain) state[y] = kRooted;
    }
    if (!rooted) {
      c.fail("V4 failed: parent pointers do not converge to the root "
             "(cycle or disconnected tree)");
    }
  }

  ValidationReport report;
  report.edges_checked = comm.allreduce_sum(edges_checked_local);
  report.reachable = comm.allreduce_sum(reachable_local);
  report.ok = c.verdict(comm, report.errors);
  return report;
}

BfsValidationReport validate_bfs(simmpi::Comm& comm,
                                 const graph::DistGraph& g, VertexId root,
                                 const BfsResult& mine) {
  constexpr std::uint32_t kNoLevel = BfsResult::kNoLevel;
  Collector c;
  const int rank = comm.rank();
  const VertexId n = g.num_vertices;
  const auto local_n = static_cast<LocalId>(g.part.count(rank));
  const VertexId my_begin = g.part.begin(rank);

  if (mine.level.size() != local_n || mine.parent.size() != local_n) {
    c.fail("result size does not match owned vertex count");
  }
  std::vector<std::uint32_t> level = mine.level;
  level.resize(local_n, kNoLevel);
  std::vector<VertexId> parent = mine.parent;
  parent.resize(local_n, kNoVertex);
  // B3's rule that a parent sits one level up rules out cycles, so the
  // levels are the only gathered copy.
  const std::vector<std::uint32_t> all_level = comm.allgatherv(level);

  // ---- B1: local consistency -------------------------------------------
  std::uint64_t reachable_local = 0;
  std::uint32_t max_level_local = 0;
  for (LocalId v = 0; v < local_n; ++v) {
    const VertexId gv = my_begin + v;
    const bool has_parent = parent[v] != kNoVertex;
    const bool has_level = level[v] != kNoLevel;
    if (has_level) {
      ++reachable_local;
      max_level_local = std::max(max_level_local, level[v]);
    }
    if (has_parent != has_level) {
      c.fail("B1: vertex " + std::to_string(gv) +
             " parent/level reachability mismatch");
    }
    if (gv == root) {
      if (parent[v] != root || level[v] != 0) {
        c.fail("B1: root must be its own parent at level 0");
      }
    } else if (has_parent && parent[v] == gv) {
      c.fail("B1: non-root vertex " + std::to_string(gv) +
             " is its own parent");
    } else if (has_parent && parent[v] >= n) {
      c.fail("B1: parent " + std::to_string(parent[v]) + " of " +
             std::to_string(gv) + " is out of range");
    }
  }

  // ---- B2: every edge spans at most one level; reachability agrees -------
  for (LocalId u = 0; c.ok() && u < local_n; ++u) {
    if (level[u] == kNoLevel) continue;
    for (std::uint64_t e = g.csr.edges_begin(u); e < g.csr.edges_end(u); ++e) {
      const VertexId v = g.csr.dst(e);
      if (v >= n) {
        c.fail("B2: edge " + std::to_string(my_begin + u) + "->" +
               std::to_string(v) + " is out of range");
        break;
      }
      const auto lv = all_level[v];
      if (lv == kNoLevel) {
        c.fail("B2: reachable vertex " + std::to_string(my_begin + u) +
               " has unreached neighbour " + std::to_string(v));
        break;
      }
      const auto hi = std::max(level[u], lv);
      const auto lo = std::min(level[u], lv);
      if (hi - lo > 1) {
        c.fail("B2: edge " + std::to_string(my_begin + u) + "->" +
               std::to_string(v) + " spans more than one level");
        break;
      }
    }
  }

  // ---- B3: tree edges are graph edges spanning exactly one level ---------
  // B1 passed on this rank, so every parent read here is in range.
  for (LocalId v = 0; c.ok() && v < local_n; ++v) {
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
      c.fail("B3: parent of " + std::to_string(gv) + " is not adjacent");
      continue;
    }
    if (all_level[p] == kNoLevel) {
      c.fail("B3: parent of " + std::to_string(gv) + " is unreached");
      continue;
    }
    if (all_level[p] + 1 != level[v]) {
      c.fail("B3: vertex " + std::to_string(gv) +
             " level is not parent level + 1");
    }
  }

  BfsValidationReport report;
  report.reachable = comm.allreduce_sum(reachable_local);
  report.max_level = comm.allreduce_max(max_level_local);
  report.ok = c.verdict(comm, report.errors);
  return report;
}

}  // namespace g500::core
