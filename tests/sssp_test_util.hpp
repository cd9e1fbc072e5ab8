// Shared helpers for SSSP engine tests: run a distributed engine over an
// EdgeList and compare against the sequential Dijkstra oracle.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "core/bellman_ford.hpp"
#include "core/delta_stepping.hpp"
#include "core/dijkstra.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"

namespace g500::testing {

enum class EngineKind { kDeltaStepping, kBellmanFord };

/// Run `kind` on `list` distributed over `ranks`, from every root in
/// `roots`; assert official validation passes and distances match Dijkstra.
inline void expect_matches_oracle(const graph::EdgeList& list, int ranks,
                                  const std::vector<graph::VertexId>& roots,
                                  const core::SsspConfig& config = {},
                                  EngineKind kind = EngineKind::kDeltaStepping,
                                  graph::BuildOptions build_opts = {}) {
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_distributed(
        comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices, build_opts);
    for (const auto root : roots) {
      core::SsspResult mine;
      switch (kind) {
        case EngineKind::kDeltaStepping:
          mine = core::delta_stepping(comm, g, root, config);
          break;
        case EngineKind::kBellmanFord:
          mine = core::bellman_ford(comm, g, root, config);
          break;
      }
      const auto verdict = core::validate_sssp(comm, g, root, mine);
      EXPECT_TRUE(verdict.ok)
          << "validation failed (root " << root << "): "
          << (verdict.errors.empty() ? "?" : verdict.errors.front());
      const auto got = core::gather_result(comm, g, mine);
      const auto want = core::dijkstra(list, root);
      ASSERT_EQ(got.dist.size(), want.dist.size());
      for (std::size_t v = 0; v < want.dist.size(); ++v) {
        EXPECT_FLOAT_EQ(got.dist[v], want.dist[v])
            << "root " << root << " vertex " << v << " ranks " << ranks;
      }
    }
  });
}

/// Named graph cases reused by the parameterized sweeps.
struct GraphCase {
  std::string name;
  std::function<graph::EdgeList()> make;
};

inline std::vector<GraphCase> standard_graph_cases() {
  using namespace graph;
  return {
      {"kronecker_s8",
       [] {
         KroneckerParams p;
         p.scale = 8;
         p.edgefactor = 8;
         return kronecker_graph(p);
       }},
      {"grid_8x16", [] { return grid_graph(8, 16, 21); }},
      {"path_64", [] { return path_graph(64, 22); }},
      {"star_64", [] { return star_graph(64, 23); }},
      {"random_128", [] { return random_graph(128, 512, 24); }},
      {"ring_33", [] { return ring_graph(33, 25); }},
      {"kronecker_dense",
       [] {
         KroneckerParams p;
         p.scale = 7;
         p.edgefactor = 32;  // dense: exercises pull heuristics
         return kronecker_graph(p);
       }},
      {"complete_48", [] { return complete_graph(48, 26); }},
  };
}

/// Expect `run` to throw std::invalid_argument naming `engine` and `knob`:
/// an engine refusing a switch it cannot honour.
inline void expect_refusal(const std::function<void()>& run,
                           const std::string& engine, const std::string& knob) {
  try {
    run();
    ADD_FAILURE() << engine << " accepted " << knob;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(engine), std::string::npos) << what;
    EXPECT_NE(what.find(knob), std::string::npos) << what;
  }
}

}  // namespace g500::testing
