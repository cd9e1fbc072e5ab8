// Deterministic pseudo-random primitives used throughout the library.
//
// Everything in the Graph 500 reproduction must be reproducible across runs
// and across simulated-rank counts: the edge list of a (scale, seed) graph is
// a pure function of those inputs, independent of which rank materializes
// which slice.  To get that property we avoid stateful engines for data
// generation and instead use *counter-based* constructions: a strong 64-bit
// mixing function applied to (seed, stream, counter) tuples.  A stateful
// SplitMix64 engine is provided for places where sequential draws are fine
// (root sampling, shuffles).
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>

namespace g500::util {

/// Finalizing mixer from SplitMix64 / MurmurHash3.  Bijective on 64 bits,
/// passes BigCrush as the core of SplitMix64.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The two halves of hash64(a, b) == mix64(hash_key(a) + hash_counter(b)).
/// A caller that hashes many counters under one key, or one counter under
/// several keys, computes each half once (graph/kronecker.cpp does).
constexpr std::uint64_t hash_key(std::uint64_t a) noexcept {
  // Weyl-style combination before mixing keeps (a,b) -> (b,a) collisions away.
  return a * 0x9e3779b97f4a7c15ULL;
}
constexpr std::uint64_t hash_counter(std::uint64_t b) noexcept {
  return mix64(b + 0x2545f4914f6cdd1dULL);
}

/// Counter-based hash of two 64-bit words.  Used as a stateless RNG:
/// hash64(seed, counter) yields an i.i.d.-looking stream indexed by counter.
constexpr std::uint64_t hash64(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(hash_key(a) + hash_counter(b));
}

/// Three-word variant for keys like (seed, stream, counter).
constexpr std::uint64_t hash64(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c) noexcept {
  return hash64(hash64(a, b), c);
}

/// Checksum a byte range with the same mixing core: fold 8-byte words (and
/// a zero-padded tail) through hash64, seeded so ranges can be chained
/// (pass the previous checksum as `seed`).  Length is mixed in, so a
/// truncated buffer never collides with its prefix.  Used for alltoallv
/// payload verification and checkpoint integrity.
inline std::uint64_t hash_bytes(const void* data, std::size_t size,
                                std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = hash64(seed, size);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = hash64(h, w);
  }
  if (i < size) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, size - i);
    h = hash64(h, w);
  }
  return h;
}

/// Map a 64-bit hash to a double in [0, 1).  Uses the top 53 bits so the
/// result is exactly representable and never 1.0.
constexpr double to_unit_double(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Map a 64-bit hash to a float in [0, 1).  Top 24 bits; never 1.0f.
constexpr float to_unit_float(std::uint64_t h) noexcept {
  return static_cast<float>(h >> 40) * 0x1.0p-24f;
}

/// Minimal stateful engine (SplitMix64).  Satisfies UniformRandomBitGenerator
/// so it can drive <random> distributions and std::shuffle.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr result_type operator()() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() noexcept { return to_unit_double((*this)()); }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift reduction
  /// (slight modulo bias < 2^-64 * bound, irrelevant at our sizes).
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    const auto x = (*this)();
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

}  // namespace g500::util
