#include "graph/kronecker.hpp"

#include <stdexcept>

#include "util/random.hpp"

namespace g500::graph {

using util::hash64;
using util::to_unit_double;

namespace {

constexpr int kFeistelRounds = 4;

/// The specification's initiator probabilities A, B and C (D = 1 - A - B - C).
constexpr double kA = 0.57;
constexpr double kB = 0.19;
constexpr double kC = 0.19;

/// Smallest positive weight: keeps every weight strictly > 0 so tree edges
/// strictly increase distance and parent chains cannot cycle.
constexpr double kMinWeight = 1e-9;

std::uint64_t mask_bits(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

}  // namespace

VertexId scramble_vertex(VertexId v, int scale, std::uint64_t seed1,
                         std::uint64_t seed2) {
  if (scale <= 0) return v;
  if (scale == 1) {
    // One-bit domain: the only non-trivial permutation is a flip.
    return v ^ (hash64(seed1, seed2) & 1);
  }
  const std::uint64_t key = hash64(seed1, seed2, 0xfe15731u);
  int lbits = scale / 2;
  int rbits = scale - lbits;
  std::uint64_t l = v >> rbits;
  std::uint64_t r = v & mask_bits(rbits);
  for (int round = 0; round < kFeistelRounds; ++round) {
    // (l, r) -> (r, l ^ F(r)); widths travel with the halves so the whole
    // map is a bijection on exactly scale bits.
    const std::uint64_t f =
        hash64(key, static_cast<std::uint64_t>(round), r) & mask_bits(lbits);
    const std::uint64_t new_l = r;
    const std::uint64_t new_r = l ^ f;
    l = new_l;
    r = new_r;
    std::swap(lbits, rbits);
  }
  return (l << rbits) | r;
}

VertexId unscramble_vertex(VertexId v, int scale, std::uint64_t seed1,
                           std::uint64_t seed2) {
  if (scale <= 0) return v;
  if (scale == 1) {
    return v ^ (hash64(seed1, seed2) & 1);
  }
  const std::uint64_t key = hash64(seed1, seed2, 0xfe15731u);
  // Reconstruct the final widths: they swap once per round.
  int lbits = scale / 2;
  int rbits = scale - lbits;
  if (kFeistelRounds % 2 != 0) std::swap(lbits, rbits);
  std::uint64_t l = v >> rbits;
  std::uint64_t r = v & mask_bits(rbits);
  for (int round = kFeistelRounds - 1; round >= 0; --round) {
    std::swap(lbits, rbits);
    const std::uint64_t prev_r = l;
    const std::uint64_t f =
        hash64(key, static_cast<std::uint64_t>(round), prev_r) &
        mask_bits(lbits);
    const std::uint64_t prev_l = r ^ f;
    l = prev_l;
    r = prev_r;
  }
  return (l << rbits) | r;
}

Edge kronecker_edge(const KroneckerParams& params, std::uint64_t index) {
  if (params.scale < 1 || params.scale > 62) {
    throw std::invalid_argument("kronecker scale must be in [1, 62]");
  }
  constexpr double ab = kA + kB;
  constexpr double abc = ab + kC;
  const std::uint64_t stream = hash64(params.seed1, params.seed2);

  VertexId u = 0;
  VertexId v = 0;
  for (int level = 0; level < params.scale; ++level) {
    const double r = to_unit_double(
        hash64(stream, index, static_cast<std::uint64_t>(level)));
    // Quadrant choice per the initiator matrix.
    const std::uint64_t ubit = r >= ab ? 1u : 0u;
    const std::uint64_t vbit = (r >= kA && r < ab) || r >= abc ? 1u : 0u;
    u = (u << 1) | ubit;
    v = (v << 1) | vbit;
  }
  u = scramble_vertex(u, params.scale, params.seed1, params.seed2);
  v = scramble_vertex(v, params.scale, params.seed1, params.seed2);
  double w = to_unit_double(hash64(stream ^ 0x5eedba5eULL, index));
  if (w < kMinWeight) w = kMinWeight;
  return Edge{u, v, static_cast<Weight>(w)};
}

std::vector<Edge> kronecker_slice(const KroneckerParams& params,
                                  std::uint64_t begin, std::uint64_t end) {
  if (begin > end || end > params.num_edges()) {
    throw std::out_of_range("kronecker_slice: bad range");
  }
  std::vector<Edge> edges;
  edges.reserve(end - begin);
  for (std::uint64_t i = begin; i < end; ++i) {
    edges.push_back(kronecker_edge(params, i));
  }
  return edges;
}

EdgeList kronecker_graph(const KroneckerParams& params) {
  EdgeList list;
  list.num_vertices = params.num_vertices();
  list.edges = kronecker_slice(params, 0, params.num_edges());
  return list;
}

}  // namespace g500::graph
