#include "graph/kronecker.hpp"

#include <stdexcept>
#include <string>

#include "util/random.hpp"

namespace g500::graph {

using util::hash64;
using util::hash_counter;
using util::hash_key;
using util::mix64;

namespace {

constexpr int kFeistelRounds = 4;
constexpr int kMaxScale = 62;

/// The specification's initiator probabilities A, B and C (D = 1 - A - B - C).
constexpr double kA = 0.57;
constexpr double kB = 0.19;
constexpr double kC = 0.19;

/// A level's quadrant is picked by comparing to_unit_double(h), which is
/// (h >> 11) * 2^-53, with the cumulative thresholds A, A+B and A+B+C.
/// Every double in [0.5, 1) is a multiple of 2^-53, so comparing h >> 11
/// with threshold * 2^53 as an integer gives exactly the same answer.
constexpr double kAb = kA + kB;
constexpr double kAbc = kAb + kC;
static_assert(kA >= 0.5 && kAbc < 1.0);
constexpr std::uint64_t in_units(double threshold) {
  return static_cast<std::uint64_t>(threshold * 0x1.0p53);
}
constexpr std::uint64_t kAUnits = in_units(kA);
constexpr std::uint64_t kAbUnits = in_units(kAb);
constexpr std::uint64_t kAbcUnits = in_units(kAbc);

/// Smallest positive weight: keeps every weight strictly > 0 so tree edges
/// strictly increase distance and parent chains cannot cycle.
constexpr double kMinWeight = 1e-9;

/// Edges generated side by side.  Their hash chains are independent, so
/// the CPU overlaps them; eight measured as fast as four and faster than
/// one or sixteen.
constexpr int kBatch = 8;

std::uint64_t mask_bits(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// The scramble: a balanced Feistel network on exactly `scale` bits, keyed
/// by hash64(seed1, seed2, 0xfe15731).  Round k maps (l, r) to
/// (r, l ^ F_k(r)) with F_k(r) = hash64(key, k, r) cut to l's width; the
/// widths travel with the halves, so the map is a bijection.  Each round's
/// hash_key(hash64(key, k)) is derived once here.
class Feistel {
 public:
  /// `stream` is hash64(seed1, seed2).
  Feistel(int scale, std::uint64_t stream) : scale_(scale) {
    if (scale <= 1) {
      // A one-bit domain's only non-trivial permutation is a flip.
      if (scale == 1) flip_ = stream & 1;
      return;
    }
    const std::uint64_t key = hash64(stream, 0xfe15731u);
    lbits_ = scale / 2;
    rbits_ = scale - lbits_;
    for (int k = 0; k < kFeistelRounds; ++k) {
      round_key_[k] = hash_key(hash64(key, static_cast<std::uint64_t>(k)));
      round_mask_[k] = mask_bits(k % 2 == 0 ? lbits_ : rbits_);
    }
  }

  /// Scramble kLanes labels in place, round by round across the lanes.
  template <int kLanes>
  void forward(std::uint64_t* x) const {
    if (scale_ <= 1) {
      for (int j = 0; j < kLanes; ++j) x[j] ^= flip_;
      return;
    }
    std::uint64_t l[kLanes];
    std::uint64_t r[kLanes];
    for (int j = 0; j < kLanes; ++j) {
      l[j] = x[j] >> rbits_;
      r[j] = x[j] & mask_bits(rbits_);
    }
    for (int k = 0; k < kFeistelRounds; ++k) {
      for (int j = 0; j < kLanes; ++j) {
        const std::uint64_t new_r = l[j] ^ f(k, r[j]);
        l[j] = r[j];
        r[j] = new_r;
      }
    }
    for (int j = 0; j < kLanes; ++j) x[j] = (l[j] << rbits_) | r[j];
  }

  /// Inverse of forward<1>.
  [[nodiscard]] std::uint64_t inverse(std::uint64_t v) const {
    if (scale_ <= 1) return v ^ flip_;
    std::uint64_t l = v >> rbits_;
    std::uint64_t r = v & mask_bits(rbits_);
    for (int k = kFeistelRounds - 1; k >= 0; --k) {
      const std::uint64_t prev_r = l;
      l = r ^ f(k, prev_r);
      r = prev_r;
    }
    return (l << rbits_) | r;
  }

 private:
  // An even round count hands the halves back at their starting widths.
  static_assert(kFeistelRounds % 2 == 0);

  [[nodiscard]] std::uint64_t f(int k, std::uint64_t r) const {
    return mix64(round_key_[k] + hash_counter(r)) & round_mask_[k];
  }

  int scale_;
  std::uint64_t flip_ = 0;
  int lbits_ = 0;
  int rbits_ = 0;
  std::uint64_t round_key_[kFeistelRounds] = {};
  std::uint64_t round_mask_[kFeistelRounds] = {};
};

/// Edge i of the stream, defined by the hashes
///   level bits: hash64(stream, i, level) for each level < scale,
///   weight:     hash64(stream ^ 0x5eedba5e, i),
/// with stream = hash64(seed1, seed2), then both endpoints scrambled.
/// Everything the edges share is derived once per slice: the two keys,
/// each level's hash_counter(level) and the scramble's round keys.  Edge
/// i's own hash_counter(i) is shared between its level and weight hashes.
class Generator {
 public:
  explicit Generator(const KroneckerParams& params)
      : Generator(params, hash64(params.seed1, params.seed2)) {}

  /// Write edges [first, first + kLanes) to out.
  template <int kLanes>
  void generate(std::uint64_t first, Edge* out) const {
    std::uint64_t level_key[kLanes];
    std::uint64_t weight_hash[kLanes];
    for (int j = 0; j < kLanes; ++j) {
      const std::uint64_t counter = hash_counter(first + j);
      // hash64(stream, i, level) == hash64(hash64(stream, i), level).
      level_key[j] = hash_key(mix64(edge_key_ + counter));
      weight_hash[j] = mix64(weight_key_ + counter);
    }
    // Endpoints: u in the first kLanes slots, v in the next kLanes.
    std::uint64_t ends[2 * kLanes] = {};
    for (int level = 0; level < scale_; ++level) {
      for (int j = 0; j < kLanes; ++j) {
        const std::uint64_t x =
            mix64(level_key[j] + level_counter_[level]) >> 11;
        // Quadrants [0, A), [A, A+B), [A+B, A+B+C), [A+B+C, 1) give
        // (u, v) bits 00, 01, 10, 11.
        const std::uint64_t ab = x >= kAbUnits;
        ends[j] = (ends[j] << 1) | ab;
        ends[kLanes + j] = (ends[kLanes + j] << 1) |
                           ((x >= kAUnits) ^ ab ^ (x >= kAbcUnits));
      }
    }
    scramble_.forward<2 * kLanes>(ends);
    for (int j = 0; j < kLanes; ++j) {
      double w = util::to_unit_double(weight_hash[j]);
      if (w < kMinWeight) w = kMinWeight;
      out[j] = Edge{ends[j], ends[kLanes + j], static_cast<Weight>(w)};
    }
  }

 private:
  Generator(const KroneckerParams& params, std::uint64_t stream)
      : scale_(params.scale),
        edge_key_(hash_key(stream)),
        weight_key_(hash_key(stream ^ 0x5eedba5eULL)),
        scramble_(params.scale, stream) {
    params.check();
    for (int level = 0; level < scale_; ++level) {
      level_counter_[level] = hash_counter(static_cast<std::uint64_t>(level));
    }
  }

  int scale_;
  std::uint64_t edge_key_;
  std::uint64_t weight_key_;
  std::uint64_t level_counter_[kMaxScale] = {};
  Feistel scramble_;
};

}  // namespace

void KroneckerParams::check() const {
  if (scale < 1 || scale > kMaxScale) {
    throw std::invalid_argument("kronecker scale must be in [1, 62], got " +
                                std::to_string(scale));
  }
  if (edgefactor < 1 ||
      static_cast<std::uint64_t>(edgefactor) > ~std::uint64_t{0} >> scale) {
    throw std::invalid_argument(
        "kronecker edgefactor must be >= 1 with edgefactor << scale in 64 "
        "bits, got edgefactor " +
        std::to_string(edgefactor) + " at scale " + std::to_string(scale));
  }
}

VertexId scramble_vertex(VertexId v, int scale, std::uint64_t seed1,
                         std::uint64_t seed2) {
  Feistel(scale, hash64(seed1, seed2)).forward<1>(&v);
  return v;
}

VertexId unscramble_vertex(VertexId v, int scale, std::uint64_t seed1,
                           std::uint64_t seed2) {
  return Feistel(scale, hash64(seed1, seed2)).inverse(v);
}

Edge kronecker_edge(const KroneckerParams& params, std::uint64_t index) {
  Edge e;
  Generator(params).generate<1>(index, &e);
  return e;
}

std::vector<Edge> kronecker_slice(const KroneckerParams& params,
                                  std::uint64_t begin, std::uint64_t end) {
  const Generator gen(params);
  if (begin > end || end > params.num_edges()) {
    throw std::out_of_range("kronecker_slice: bad range");
  }
  std::vector<Edge> edges(end - begin);
  Edge* out = edges.data();
  std::uint64_t i = begin;
  for (; end - i >= kBatch; i += kBatch, out += kBatch) {
    gen.generate<kBatch>(i, out);
  }
  for (; i < end; ++i, ++out) gen.generate<1>(i, out);
  return edges;
}

EdgeList kronecker_graph(const KroneckerParams& params) {
  EdgeList list;
  list.num_vertices = params.num_vertices();
  list.edges = kronecker_slice(params, 0, params.num_edges());
  return list;
}

}  // namespace g500::graph
