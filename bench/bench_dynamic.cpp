// D1 — Streaming graph mutations: delta-log commits, incremental SSSP
// repair, and version-aware serving invalidation.
//
// Two questions a mutating deployment must answer, each a hard gate:
//
//   (a) Is incremental repair exact and cheaper?  Interleaved localized
//       update batches (inserts, deletes, weight increases confined to a
//       small vertex window) through dyn::MutableGraph, each followed by
//       dyn::incremental_sssp_repair of a held SSSP result AND a
//       from-scratch recompute on the new view.  The run fails unless the
//       repaired distances are bit-identical to the recompute after EVERY
//       batch and the repair's total relaxations stay strictly below the
//       recompute's (the affected cone is small, so re-relaxing only it
//       must win).  Compaction fires mid-run to prove repair survives a
//       hub re-selection.
//   (b) Does serving stay exact across commits?  A DistanceService with
//       the landmark oracle runs point queries interleaved with commits
//       (note_graph_update after each): every answer must match a fresh
//       recompute on the then-current view bit for bit and carry the
//       then-current graph version; the invalidation counters land in the
//       report (scoped, not wholesale: retained entries > 0 on localized
//       batches).  A restarted service then adopts the persisted oracle
//       slices AND exact point cache at the final version with zero
//       precompute waves, and keeps answering correctly.
//
// Everything lands in BENCH_dynamic.json (schema: docs/dynamic.md), gated
// in CI by scripts/check_report_schema.py (bit_identical, repair_ok,
// work_ratio < 1).
#include <algorithm>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "dyn/mutable_graph.hpp"
#include "dyn/repair.hpp"
#include "serve/driver.hpp"
#include "serve/json.hpp"
#include "util/options.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;

/// Stage one localized batch on rank 0, confined to the id range
/// [lo, hi): fresh inserts inside a small window plus deletes / weight
/// doublings of in-range edges applied by earlier batches (tracked in
/// `live`, which is identical on every rank because it is folded from
/// the allgathered CommitSummary::applied lists).
void stage_localized_batch(
    dyn::MutableGraph& mg, util::SplitMix64& rng, graph::VertexId lo,
    graph::VertexId hi, graph::VertexId window, int inserts, int touches,
    const std::map<std::pair<graph::VertexId, graph::VertexId>,
                   graph::Weight>& live) {
  const graph::VertexId span = hi - lo;
  const graph::VertexId win = std::min(window, span);
  const graph::VertexId base =
      lo + (win >= span ? 0 : rng.next_below(span - win));
  for (int i = 0; i < inserts; ++i) {
    const auto u = base + rng.next_below(win);
    const auto v = base + rng.next_below(win);
    mg.stage_insert(u, v,
                    0.05f + 0.9f * static_cast<graph::Weight>(
                                       rng.next_double()));
  }
  // Revisit earlier in-range insertions: delete some, double the weight
  // of others (kSet is the only way to increase), so the
  // suspect/invalidation path of the repair is exercised, not just
  // decrease seeding.
  int candidates = 0;
  for (const auto& [key, w] : live) {
    if (key.first >= lo && key.second < hi) ++candidates;
  }
  if (candidates > 0) {
    const int stride = std::max(1, candidates / std::max(1, touches));
    int idx = 0;
    int touched = 0;
    for (const auto& [key, w] : live) {
      if (key.first < lo || key.second >= hi) continue;
      if (idx++ % stride != 0 || touched >= touches) continue;
      ++touched;
      if (rng.next_below(2) == 0) {
        mg.stage_delete(key.first, key.second);
      } else {
        mg.stage_set(key.first, key.second, w * 2.0f);
      }
    }
  }
}

/// Fold one commit into the live-edge ledger (same data on every rank).
void fold_applied(
    const dyn::CommitSummary& summary,
    std::map<std::pair<graph::VertexId, graph::VertexId>, graph::Weight>&
        live) {
  for (const auto& a : summary.applied) {
    const auto key = std::make_pair(a.u, a.v);
    if (a.removed != 0) {
      live.erase(key);
    } else {
      live[key] = a.new_weight;
    }
  }
}

/// Push one point-to-point query through the service synchronously.
serve::Answer ask(serve::DistanceService& svc, std::uint64_t& id,
                  std::uint64_t& tick, graph::VertexId root,
                  graph::VertexId target) {
  serve::Query q;
  q.id = id++;
  q.arrival_tick = tick;
  q.kind = serve::QueryKind::kPointToPoint;
  q.root = root;
  q.target = target;
  if (!svc.submit(q)) throw std::runtime_error("query shed");
  const auto answers = svc.tick(tick++, /*flush=*/true);
  if (answers.size() != 1) throw std::runtime_error("expected one answer");
  return answers.front();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int scale = static_cast<int>(options.get_int("scale", 12));
  const int ranks = static_cast<int>(options.get_int("ranks", 4));
  const int num_batches = static_cast<int>(options.get_int("batches", 8));
  const int inserts = static_cast<int>(options.get_int("inserts", 12));
  const int touches = static_cast<int>(options.get_int("touches", 4));
  const graph::VertexId window =
      static_cast<graph::VertexId>(options.get_int("window", 64));
  const int landmarks = static_cast<int>(options.get_int("landmarks", 4));
  const graph::VertexId annex =
      static_cast<graph::VertexId>(options.get_int("annex", 256));
  const int serve_rounds = static_cast<int>(options.get_int("serve-rounds", 3));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(options.get_int("seed", 0xD15C));

  graph::KroneckerParams params;
  params.scale = scale;

  bench::RunReport report("dynamic", options);
  util::Table repair_table({"batch", "applied", "suspects", "seeds",
                            "repair relax", "recompute relax", "ratio",
                            "identical", "compacted"});
  util::Table serve_table({"round", "version", "applied", "pts retained",
                           "pts dropped", "slices refreshed", "checked",
                           "exact"});

  // Rank-0 exports.  The rank lambdas run concurrently, so everything in
  // here is written ONLY under comm.rank() == 0 (the gate values are
  // allreduce-agreed, so rank 0's copy speaks for every rank).
  std::uint64_t total_applied = 0;
  std::uint64_t compactions = 0;
  std::uint64_t final_version = 0;
  std::uint64_t repair_relax = 0;
  std::uint64_t recompute_relax = 0;
  bool bit_identical = true;
  bool serving_exact = true;
  bool scoped_retained = false;
  bool restart_ok = false;
  std::uint64_t serving_checked = 0;
  serve::ServiceMetrics serve_metrics;
  std::uint64_t point_restored = 0;

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    // Per-rank accumulators; folded into the rank-0 exports at the end.
    std::uint64_t my_repair_relax = 0;
    std::uint64_t my_recompute_relax = 0;
    std::uint64_t my_applied = 0;
    std::uint64_t my_checked = 0;
    std::uint64_t my_restored = 0;
    bool my_identical = true;
    bool my_serving_exact = true;
    bool my_scoped = false;
    bool my_restart = false;
    serve::ServiceMetrics my_metrics;

    // The universe is a Kronecker base component [0, n_base) plus a
    // disjoint annex ring [n_base, n).  Phase (b) confines its edits to
    // the annex while querying base roots, so base-rooted artifacts are
    // PROVABLY unaffected (cross-component unreachability via the
    // landmark bounds) — the scoped-retention gate has teeth instead of
    // depending on how tight the triangle brackets happen to be.
    graph::EdgeList list = graph::kronecker_graph(params);
    const graph::VertexId n_base = list.num_vertices;
    list.num_vertices = n_base + annex;
    util::SplitMix64 ring_rng(seed ^ 0xA13E);
    for (graph::VertexId i = 0; i < annex; ++i) {
      list.edges.push_back(graph::Edge{
          n_base + i, n_base + (i + 1) % annex,
          0.5f + static_cast<graph::Weight>(ring_rng.next_double())});
    }

    dyn::MutableGraph::Config mcfg;
    // At least one compaction mid-run: repair must survive a hub list
    // re-selected between batches, not just per-commit view rebuilds.
    mcfg.compact_every =
        static_cast<std::uint64_t>(std::max(2, num_batches / 2));
    dyn::MutableGraph mg(
        comm,
        graph::build_distributed(
            comm, graph::slice_for_rank(list, comm.rank(), comm.size()),
            list.num_vertices),
        mcfg);
    const graph::VertexId n = mg.view().num_vertices;

    const auto roots = core::sample_roots(comm, mg.view(), 1, seed ^ 0x9500);
    if (roots.empty()) throw std::runtime_error("no eligible roots");
    const graph::VertexId root = roots.front();

    const core::SsspConfig scfg;  // one config for solve, repair, recompute
    core::SsspResult labels = core::delta_stepping(comm, mg.view(), root, scfg);

    // ---- (a) repair vs recompute per batch --------------------------
    // Two streams: stage_rng is consumed ONLY on rank 0 (any rank may
    // stage, and only rank 0 does), qrng is consumed identically on every
    // rank — query roots drive collective waves, so they must agree.
    util::SplitMix64 stage_rng(seed);
    util::SplitMix64 qrng(seed ^ 0x51E57);
    std::map<std::pair<graph::VertexId, graph::VertexId>, graph::Weight> live;
    for (int b = 0; b < num_batches; ++b) {
      if (comm.rank() == 0) {
        stage_localized_batch(mg, stage_rng, 0, n_base, window, inserts,
                              touches, live);
      }
      const auto summary = mg.commit_batch();
      fold_applied(summary, live);

      dyn::RepairStats rs;
      dyn::incremental_sssp_repair(comm, mg.view(), root, summary, labels,
                                   scfg, &rs);
      core::SsspStats full;
      const auto fresh =
          core::delta_stepping(comm, mg.view(), root, scfg, &full);

      // Distances only: parents may legitimately differ between the two
      // fixed-point runs (both are valid shortest-path trees).
      bool mismatch = labels.dist != fresh.dist;
      const bool identical = !comm.allreduce_or(mismatch);
      my_identical = my_identical && identical;

      const auto batch_repair = comm.allreduce_sum(rs.sssp.relax_generated);
      const auto batch_full = comm.allreduce_sum(full.relax_generated);
      my_repair_relax += batch_repair;
      my_recompute_relax += batch_full;
      my_applied += summary.edges_applied();
      if (comm.rank() == 0) {
        repair_table.row()
            .add(static_cast<std::uint64_t>(b))
            .add(summary.edges_applied())
            .add(rs.suspects)
            .add(rs.seeds)
            .add(batch_repair)
            .add(batch_full)
            .add(batch_full == 0
                     ? 0.0
                     : static_cast<double>(batch_repair) /
                           static_cast<double>(batch_full),
                 3)
            .add(identical ? "yes" : "NO")
            .add(summary.compacted ? "yes" : "-");
        util::Json c = util::Json::object();
        c["phase"] = "repair_vs_recompute";
        c["batch"] = static_cast<std::uint64_t>(b);
        c["graph_version"] = summary.graph_version;
        c["edges_applied"] = summary.edges_applied();
        c["suspects"] = rs.suspects;
        c["invalidated"] = rs.invalidated;
        c["seeds"] = rs.seeds;
        c["repair_relax"] = batch_repair;
        c["recompute_relax"] = batch_full;
        c["bit_identical"] = identical;
        c["compacted"] = summary.compacted;
        report.add_case(std::move(c));
      }
    }
    const std::uint64_t my_compactions = mg.stats().compactions;

    // ---- (b) version-aware serving across commits -------------------
    serve::OracleSliceStore store;
    serve::ServeConfig sc;
    sc.batch_size = 4;
    sc.queue_depth = 256;
    sc.oracle.num_landmarks = static_cast<std::size_t>(landmarks);
    sc.graph_version = mg.version();

    // Reference distances, recomputed fresh per (root, version) pair.
    std::map<std::pair<graph::VertexId, std::uint64_t>,
             std::vector<graph::Weight>>
        reference;
    const auto ref_distance = [&](graph::VertexId r, graph::VertexId t) {
      const auto key = std::make_pair(r, mg.version());
      auto it = reference.find(key);
      if (it == reference.end()) {
        const auto mine = core::delta_stepping(comm, mg.view(), r, scfg);
        it = reference
                 .emplace(key,
                          core::gather_result(comm, mg.view(), mine).dist)
                 .first;
      }
      return it->second[t];
    };

    {
      serve::FaultContext ctx;
      ctx.oracle_store = &store;
      serve::DistanceService svc(comm, mg.view(), sc, &ctx);
      std::uint64_t id = 0;
      std::uint64_t tick = 0;
      // Two pinned pairs repeat every round (point-cache retention bait)
      // plus fresh random pairs.
      const std::pair<graph::VertexId, graph::VertexId> pinned[2] = {
          {qrng.next_below(n_base), qrng.next_below(n_base)},
          {qrng.next_below(n_base), qrng.next_below(n_base)}};
      std::uint64_t pts_seen = 0;
      std::uint64_t slices_seen = 0;
      for (int round = 0; round <= serve_rounds; ++round) {
        std::vector<std::pair<graph::VertexId, graph::VertexId>> queries(
            pinned, pinned + 2);
        queries.emplace_back(qrng.next_below(n_base), qrng.next_below(n_base));
        queries.emplace_back(qrng.next_below(n_base), qrng.next_below(n_base));
        bool round_exact = true;
        for (const auto& [r, t] : queries) {
          const auto a = ask(svc, id, tick, r, t);
          // Float == is exact: finite distances must match bit for bit
          // and +inf compares equal to +inf.
          const bool good = a.distance == ref_distance(r, t) &&
                            a.graph_version == mg.version();
          round_exact = round_exact && good;
          ++my_checked;
        }
        my_serving_exact = my_serving_exact && round_exact;

        std::uint64_t applied_now = 0;
        if (round < serve_rounds) {
          if (comm.rank() == 0) {
            // Annex-only edits: base-rooted cache entries must survive.
            stage_localized_batch(mg, stage_rng, n_base, n, window, inserts,
                                  touches, live);
          }
          const auto summary = mg.commit_batch();
          fold_applied(summary, live);
          applied_now = summary.edges_applied();
          svc.note_graph_update(summary);
        }
        if (comm.rank() == 0) {
          const auto& m = svc.metrics();
          serve_table.row()
              .add(static_cast<std::uint64_t>(round))
              .add(svc.graph_version())
              .add(applied_now)
              .add(m.points_retained - pts_seen)
              .add(m.points_invalidated)
              .add(m.slices_refreshed - slices_seen)
              .add(static_cast<std::uint64_t>(queries.size()))
              .add(round_exact ? "yes" : "NO");
          pts_seen = m.points_retained;
          slices_seen = m.slices_refreshed;
        }
      }
      svc.persist_point_cache(store);
      my_metrics = svc.metrics();
      // Localized batches + landmarks spread over the graph: at least one
      // cached artifact must survive each commit via the oracle brackets,
      // or the invalidation is effectively wholesale.
      my_scoped = my_metrics.points_retained > 0 &&
                  my_metrics.wholesale_flushes == 0;
    }

    // Restart at the final version: both persisted artifacts adopt (zero
    // precompute waves) and the service keeps answering exactly.
    {
      serve::ServeConfig sc2 = sc;
      sc2.graph_version = mg.version();
      serve::FaultContext ctx;
      ctx.oracle_store = &store;
      serve::DistanceService svc(comm, mg.view(), sc2, &ctx);
      my_restored = svc.metrics().point_restored;
      bool adopted = svc.oracle() != nullptr &&
                     svc.oracle()->restored_from_store() &&
                     svc.oracle()->precompute_waves() == 0;
      std::uint64_t id = 1000;
      std::uint64_t tick = 0;
      for (int i = 0; i < 2; ++i) {
        const auto r = qrng.next_below(n_base);
        const auto t = qrng.next_below(n_base);
        const auto a = ask(svc, id, tick, r, t);
        adopted = adopted && a.distance == ref_distance(r, t);
        ++my_checked;
      }
      my_restart = adopted;
    }

    if (comm.rank() == 0) {
      total_applied = my_applied;
      compactions = my_compactions;
      final_version = mg.version();
      repair_relax = my_repair_relax;
      recompute_relax = my_recompute_relax;
      bit_identical = my_identical;
      serving_exact = my_serving_exact;
      scoped_retained = my_scoped;
      restart_ok = my_restart;
      serving_checked = my_checked;
      serve_metrics = my_metrics;
      point_restored = my_restored;
    }
  });

  const double work_ratio =
      recompute_relax == 0 ? 1.0
                           : static_cast<double>(repair_relax) /
                                 static_cast<double>(recompute_relax);
  const bool repair_ok = bit_identical && work_ratio < 1.0 &&
                         serving_exact && scoped_retained && restart_ok;

  repair_table.print(std::cout,
                     "D1a: incremental repair vs from-scratch recompute, "
                     "scale " + std::to_string(scale) + ", " +
                     std::to_string(ranks) + " ranks");
  std::cout << "\nExpected shape: identical distances every batch with the "
               "repair re-relaxing\nonly the affected cone — its relaxation "
               "total stays well below the recompute's.\n\n";
  serve_table.print(std::cout,
                    "D1b: version-aware serving across commits (scoped "
                    "invalidation)");
  std::cout << "\nExpected shape: every answer matches a fresh recompute on "
               "the then-current\nview; localized commits retain provably "
               "unaffected entries instead of flushing.\n\n";
  std::cout << "repair vs recompute work ratio: " << work_ratio
            << " (required < 1), bit-identical: "
            << (bit_identical ? "yes" : "NO") << "\n";
  std::cout << "serving answers exact: " << (serving_exact ? "yes" : "NO")
            << " (" << serving_checked << " checked), scoped retention: "
            << (scoped_retained ? "yes" : "NO") << ", restart adoption: "
            << (restart_ok ? "yes" : "NO") << "\n";

  util::Json dyn = util::Json::object();
  dyn["batches"] = static_cast<std::uint64_t>(num_batches);
  dyn["edges_applied"] = total_applied;
  dyn["graph_version"] = final_version;
  dyn["compactions"] = compactions;
  dyn["repair_relax"] = repair_relax;
  dyn["recompute_relax"] = recompute_relax;
  dyn["work_ratio"] = work_ratio;
  dyn["bit_identical"] = bit_identical;
  dyn["repair_ok"] = repair_ok;
  util::Json inv = util::Json::object();
  inv["graph_updates"] = serve_metrics.graph_updates;
  inv["update_edges_applied"] = serve_metrics.update_edges_applied;
  inv["roots_invalidated"] = serve_metrics.roots_invalidated;
  inv["roots_retained"] = serve_metrics.roots_retained;
  inv["points_invalidated"] = serve_metrics.points_invalidated;
  inv["points_retained"] = serve_metrics.points_retained;
  inv["memo_invalidated"] = serve_metrics.memo_invalidated;
  inv["slices_refreshed"] = serve_metrics.slices_refreshed;
  inv["wholesale_flushes"] = serve_metrics.wholesale_flushes;
  inv["version_misses"] = serve_metrics.cache.version_misses;
  dyn["invalidation"] = std::move(inv);
  util::Json pp = util::Json::object();
  pp["persisted"] = serve_metrics.point_persisted;
  pp["restored"] = point_restored;
  dyn["point_persistence"] = std::move(pp);
  dyn["serving_exact"] = serving_exact;
  dyn["serving_checked"] = serving_checked;
  dyn["scoped_retained"] = scoped_retained;
  dyn["restart_ok"] = restart_ok;
  dyn["serving_metrics"] = serve::to_json(serve_metrics);
  report.doc()["dynamic"] = std::move(dyn);
  report.doc()["acceptance_ok"] = repair_ok;
  bench::write_report(report, repair_table);
  return repair_ok ? 0 : 1;
}
