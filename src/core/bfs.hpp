// Distributed direction-optimizing BFS — the other Graph 500 kernel.
//
// The record team's SSSP work builds directly on their 281-trillion-edge
// BFS run; the BFS engine here implements the same structure on this
// library's substrate: 1-D owner-computes partition, top-down rounds that
// push (child, parent) messages to owners, and bottom-up rounds where each
// unvisited vertex scans its own edges against a broadcast frontier bitmap
// (Beamer-style direction optimization).  Frontier representation switches
// between a sparse vertex list and a dense bitmap with the direction.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

struct BfsConfig {
  /// kAuto switches by Beamer's heuristic each round, kPush runs top-down
  /// and kPull bottom-up every round.
  Direction direction = Direction::kAuto;
};

/// Per-rank BFS output for owned vertices: parent in the BFS tree
/// (kNoVertex when unreached, root for the root) and hop level
/// (kNoLevel when unreached).
struct BfsResult {
  static constexpr std::uint32_t kNoLevel = ~std::uint32_t{0};
  std::vector<graph::VertexId> parent;
  std::vector<std::uint32_t> level;
};

struct BfsStats {
  std::uint64_t rounds = 0;
  std::uint64_t top_down_rounds = 0;
  std::uint64_t bottom_up_rounds = 0;
  std::uint64_t edges_scanned = 0;
  std::uint64_t messages_sent = 0;
  double seconds = 0.0;
};

/// Run one BFS from `root`.  SPMD: call from every rank.
[[nodiscard]] BfsResult bfs(simmpi::Comm& comm, const graph::DistGraph& g,
                            graph::VertexId root, const BfsConfig& config = {},
                            BfsStats* stats = nullptr);

/// Graph 500 BFS result checks: root/level/parent consistency, tree edges
/// are graph edges spanning exactly one level, every edge spans <= 1 level
/// (so the labelling is a true BFS), and reachability agrees across edges.
/// Defined in validate.cpp beside validate_sssp: both check one gathered
/// copy of the result (here the levels) with local scans.
struct BfsValidationReport {
  bool ok = true;
  std::vector<std::string> errors;
  std::uint64_t reachable = 0;
  std::uint32_t max_level = 0;
};

[[nodiscard]] BfsValidationReport validate_bfs(simmpi::Comm& comm,
                                               const graph::DistGraph& g,
                                               graph::VertexId root,
                                               const BfsResult& mine);

}  // namespace g500::core
