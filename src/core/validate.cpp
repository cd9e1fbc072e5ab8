#include "core/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/remote.hpp"

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
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
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
      }
      if (has_dist && !(dist[v] >= 0.0f)) {
        c.fail(describe("V1", gv, "negative distance"));
      }
    }
  }

  // ---- Fetch remote distances for V2/V3 --------------------------------
  // One query per adjacency entry plus one per parent; deduplicated.
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
  const std::vector<Weight> fetched =
      fetch_values(comm, g.part, queries, dist);
  auto dist_of = [&](VertexId v) -> Weight {
    const auto it = std::lower_bound(queries.begin(), queries.end(), v);
    return fetched[static_cast<std::size_t>(it - queries.begin())];
  };

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
      const Weight dv = dist_of(g.csr.dst(e));
      // Relax in float, as every engine does: the exact double sum would
      // reject a correct float32 result by the rounding of du + w, which
      // exceeds the tolerance once distances reach 256.
      const Weight relaxed = du + g.csr.weight(e);
      if (dv == kInfDistance ||
          static_cast<double>(dv) - static_cast<double>(relaxed) >
              tolerance) {
        c.fail(describe("V2", my_begin + u,
                        "edge to " + std::to_string(g.csr.dst(e)) +
                            " is still relaxable"));
        break;
      }
    }
  }

  // ---- V3: tree edges are real edges with consistent distances ---------
  for (LocalId v = 0; c.ok() && v < local_n; ++v) {
    const VertexId gv = my_begin + v;
    const VertexId p = parent[v];
    if (p == kNoVertex || gv == root) continue;
    const Weight dp = dist_of(p);
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
  // Pointer doubling: anchor[v] <- anchor[anchor[v]] until every reachable
  // vertex anchors at the root.  64 iterations cover any acyclic depth;
  // non-convergence means a cycle or a stray forest.
  {
    std::vector<VertexId> anchor(local_n);
    for (LocalId v = 0; v < local_n; ++v) {
      anchor[v] = parent[v] == kNoVertex ? my_begin + v : parent[v];
    }
    bool converged = false;
    for (int iter = 0; iter < 64; ++iter) {
      bool moving_local = false;
      for (LocalId v = 0; v < local_n; ++v) {
        if (parent[v] != kNoVertex && anchor[v] != root) {
          moving_local = true;
          break;
        }
      }
      if (!comm.allreduce_or(moving_local)) {
        converged = true;
        break;
      }
      const std::vector<VertexId> next =
          fetch_values(comm, g.part, anchor, anchor);
      for (LocalId v = 0; v < local_n; ++v) anchor[v] = next[v];
    }
    if (!converged) {
      c.fail("V4 failed: parent pointers do not converge to the root "
             "(cycle or disconnected tree)");
    }
  }

  // ---- Aggregate the verdict --------------------------------------------
  ValidationReport report;
  report.ok = !comm.allreduce_or(!c.ok());
  report.edges_checked = comm.allreduce_sum(edges_checked_local);
  report.reachable = comm.allreduce_sum(reachable_local);
  struct ErrorLine {
    char text[160];
  };
  std::vector<ErrorLine> lines;
  for (const auto& msg : c.errors()) {
    ErrorLine line{};
    msg.copy(line.text, sizeof(line.text) - 1);
    lines.push_back(line);
  }
  const std::vector<ErrorLine> all = comm.allgatherv(lines);
  for (const auto& line : all) report.errors.emplace_back(line.text);
  return report;
}

}  // namespace g500::core
