#include "serve/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "core/delta_stepping.hpp"
#include "core/remote.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace g500::serve {

namespace {

/// Reduction candidate for landmark selection.  Ordering: farther wins,
/// then higher degree (hubs cover more shortest paths), then lower id —
/// a total order, so the allreduce result is rank-count independent.
struct Candidate {
  graph::Weight dist = -1.0f;
  std::uint64_t degree = 0;
  graph::VertexId id = graph::kNoVertex;
};

Candidate better(Candidate a, Candidate b) {
  if (a.dist != b.dist) return a.dist > b.dist ? a : b;
  if (a.degree != b.degree) return a.degree > b.degree ? a : b;
  return a.id <= b.id ? a : b;
}

}  // namespace

LandmarkOracle::LandmarkOracle(simmpi::Comm& comm, const graph::DistGraph& g,
                               const OracleConfig& config,
                               std::uint64_t graph_version,
                               OracleSliceStore* store)
    : comm_(comm), g_(g), config_(config), graph_version_(graph_version) {
  if (config_.num_landmarks == 0) {
    throw std::invalid_argument("LandmarkOracle: num_landmarks must be >= 1");
  }
  if (store != nullptr && store->valid()) {
    // Adoption must be all-or-nothing across ranks: slices feed
    // collective row fetches, and a rank recomputing while another
    // adopts would desync the precompute collective schedule.
    const bool mine = try_adopt(*store);
    if (!comm_.allreduce_or(!mine)) {
      restored_ = true;
      return;  // zero precompute waves
    }
    // Some rank's digest gate failed: drop the blob and recompute.
    landmarks_.clear();
    slices_.clear();
    store->clear();
  }

  util::Timer timer;
  const auto want = static_cast<std::size_t>(
      std::min<graph::VertexId>(config_.num_landmarks, g_.num_vertices));
  const graph::VertexId my_begin = g_.part.begin(comm_.rank());
  const auto local_n = static_cast<graph::LocalId>(g_.csr.num_local());

  // Seed: the global top-degree vertex (dist field unused, left equal).
  {
    Candidate mine;
    for (graph::LocalId v = 0; v < local_n; ++v) {
      const Candidate c{0.0f, g_.csr.degree(v), my_begin + v};
      mine = better(mine, c);
    }
    const Candidate seed = comm_.allreduce(mine, better);
    landmarks_.push_back(seed.id);
  }

  // Farthest-point refinement: each round, one multi-source wave from the
  // current set, then the globally farthest non-member joins.  Vertices
  // the set cannot reach count as infinitely far, so every component
  // acquires a landmark before coverage deepens — which is what turns
  // cross-component queries into free unreachability proofs.
  while (landmarks_.size() < want) {
    const auto wave = core::delta_stepping_multi(comm_, g_, landmarks_);
    ++precompute_waves_;
    Candidate mine;
    for (graph::LocalId v = 0; v < local_n; ++v) {
      const graph::Weight d = wave.dist[v];
      if (d <= 0.0f) continue;  // a member of the set (or co-located)
      mine = better(mine, Candidate{d, g_.csr.degree(v), my_begin + v});
    }
    const Candidate next = comm_.allreduce(mine, better);
    if (next.id == graph::kNoVertex) break;  // set already covers everything
    landmarks_.push_back(next.id);
  }

  slices_.reserve(landmarks_.size());
  for (const auto lm : landmarks_) {
    auto wave = core::delta_stepping_multi(comm_, g_, {lm});
    ++precompute_waves_;
    slices_.push_back(std::move(wave.dist));
  }
  precompute_seconds_ = timer.seconds();
  if (store != nullptr) save(*store);
}

std::uint64_t LandmarkOracle::identity_digest() const {
  std::uint64_t h = util::hash64(OracleSliceStore::kFormatVersion,
                                 g_.num_vertices);
  h = util::hash64(h, static_cast<std::uint64_t>(g_.csr.num_local()));
  h = util::hash64(h, static_cast<std::uint64_t>(config_.num_landmarks));
  // Streaming mutations bump the graph version; slices solved on an older
  // version answer a different graph and must never pass the adopt gate.
  h = util::hash64(h, graph_version_);
  return h;
}

std::uint64_t LandmarkOracle::refresh_slices(
    const std::vector<std::size_t>& flagged, std::uint64_t new_version) {
  std::vector<std::size_t> order(flagged);
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  std::uint64_t waves = 0;
  for (const auto k : order) {
    if (k >= landmarks_.size()) {
      throw std::out_of_range("refresh_slices: landmark index out of range");
    }
    auto wave = core::delta_stepping_multi(comm_, g_, {landmarks_[k]});
    slices_[k] = std::move(wave.dist);
    ++waves;
  }
  graph_version_ = new_version;
  return waves;
}

void LandmarkOracle::save(OracleSliceStore& store) const {
  BlobWriter out(store.blob);
  out.put(identity_digest());
  out.put(landmarks_.size());
  const std::uint64_t local_n =
      slices_.empty() ? 0 : static_cast<std::uint64_t>(slices_[0].size());
  out.put(local_n);
  for (const auto lm : landmarks_) out.put(static_cast<std::uint64_t>(lm));
  for (const auto& slice : slices_) {
    out.put_bytes(slice.data(), slice.size() * sizeof(graph::Weight));
  }
  // The trailing checksum guards against bit rot.
  out.seal();
}

bool LandmarkOracle::try_adopt(const OracleSliceStore& store) {
  BlobReader in(store.blob);
  std::uint64_t identity = 0;
  std::uint64_t K = 0;
  std::uint64_t local_n = 0;
  if (!in.get(identity) || identity != identity_digest()) return false;
  if (!in.get(K) || !in.get(local_n)) return false;
  if (K == 0 || K > config_.num_landmarks ||
      local_n != static_cast<std::uint64_t>(g_.csr.num_local())) {
    return false;
  }
  if (!in.sealed(K * sizeof(std::uint64_t) +
                 K * local_n * sizeof(graph::Weight))) {
    return false;
  }

  landmarks_.clear();
  landmarks_.reserve(K);
  for (std::uint64_t k = 0; k < K; ++k) {
    std::uint64_t lm = 0;
    (void)in.get(lm);
    if (lm >= g_.num_vertices) return false;
    landmarks_.push_back(static_cast<graph::VertexId>(lm));
  }
  slices_.assign(K, {});
  for (auto& slice : slices_) {
    slice.resize(local_n);
    (void)in.get_bytes(slice.data(), local_n * sizeof(graph::Weight));
  }
  return true;
}

std::vector<std::vector<graph::Weight>> LandmarkOracle::landmark_distances(
    const std::vector<graph::VertexId>& vertices) {
  const std::size_t K = slices_.size();
  std::vector<const std::vector<graph::Weight>*> slots;
  slots.reserve(K);
  for (const auto& s : slices_) slots.push_back(&s);

  std::vector<core::SlotQuery> queries;
  queries.reserve(vertices.size() * K);
  for (const auto v : vertices) {
    for (std::size_t k = 0; k < K; ++k) {
      queries.push_back({static_cast<std::uint32_t>(k), v});
    }
  }
  const auto flat = core::fetch_values_batched(comm_, g_.part, queries, slots);

  std::vector<std::vector<graph::Weight>> rows(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    rows[i].assign(flat.begin() + static_cast<std::ptrdiff_t>(i * K),
                   flat.begin() + static_cast<std::ptrdiff_t>((i + 1) * K));
  }
  return rows;
}

LandmarkOracle::Bounds LandmarkOracle::bounds(
    const std::vector<graph::Weight>& at_s,
    const std::vector<graph::Weight>& at_t, graph::VertexId s,
    graph::VertexId t) const {
  Bounds b;
  if (s == t) {
    b.lb = b.ub = 0.0f;
    b.exact = true;
    return b;
  }
  for (std::size_t k = 0; k < landmarks_.size(); ++k) {
    const graph::Weight ds = at_s[k];
    const graph::Weight dt = at_t[k];
    const bool s_in = std::isfinite(ds);
    const bool t_in = std::isfinite(dt);
    if (s_in != t_in) {
      // One endpoint inside L_k's component, the other outside: no path.
      b.lb = b.ub = graph::kInfDistance;
      b.exact = true;
      b.unreachable = true;
      return b;
    }
    if (!s_in) continue;  // landmark sees neither endpoint: no information
    b.lb = std::max(b.lb, std::abs(ds - dt));
    b.ub = std::min(b.ub, ds + dt);
  }
  for (std::size_t k = 0; k < landmarks_.size(); ++k) {
    if (landmarks_[k] == s) {
      // The precomputed wave from L_k == s *is* the fresh wave from s.
      b.lb = b.ub = at_t[k];
      b.exact = true;
      b.unreachable = !std::isfinite(at_t[k]);
      return b;
    }
  }
  // Note: t being a landmark gives d(t, s), which equals d(s, t) in the
  // metric but may differ in the last float bits from a wave rooted at s
  // (path sums accumulate in the opposite order) — it stays a bound, not
  // an exact hit, to preserve bit-identity with unpruned waves.
  b.lb = std::min(b.lb, b.ub);
  return b;
}

std::vector<graph::Weight> LandmarkOracle::lb_slice(
    const std::vector<graph::Weight>& at_t) const {
  const auto local_n = static_cast<std::size_t>(g_.csr.num_local());
  std::vector<graph::Weight> lb(local_n, 0.0f);
  const auto scale = static_cast<graph::Weight>(1.0 - kPruneSlack);
  for (std::size_t k = 0; k < slices_.size(); ++k) {
    const auto& slice = slices_[k];
    const graph::Weight dt = at_t[k];
    const bool t_in = std::isfinite(dt);
    for (std::size_t v = 0; v < local_n; ++v) {
      const graph::Weight dv = slice[v];
      if (std::isfinite(dv) == t_in) {
        if (t_in) lb[v] = std::max(lb[v], std::abs(dv - dt) * scale);
        // both infinite: L_k sees neither v nor the target — no information
      } else {
        // Exactly one of v / target in L_k's component: v can never reach
        // the target, prune it unconditionally.
        lb[v] = graph::kInfDistance;
      }
    }
  }
  return lb;
}

void LandmarkOracle::min_into_lb_slice(
    std::vector<graph::Weight>& slice,
    const std::vector<graph::Weight>& at_t) const {
  const auto extra = lb_slice(at_t);
  for (std::size_t v = 0; v < slice.size(); ++v) {
    slice[v] = std::min(slice[v], extra[v]);
  }
}

graph::Weight LandmarkOracle::budget(graph::Weight ub) const {
  return ub * static_cast<graph::Weight>(1.0 + kPruneSlack);
}

}  // namespace g500::serve
