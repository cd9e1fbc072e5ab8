// Seeded exponential backoff with deterministic jitter.
//
// Every retry loop in the repo (the resilient benchmark driver, the
// recovery drill, the serving layer's wave retry) charges simulated
// backoff through this one policy so their semantics cannot drift.  A
// caller sets only the base delay and the jitter seed; the growth factor,
// the cap and the jitter fraction are the constants below.  Jitter is
// counter-based — a pure function of (seed, attempt) — so a rerun of the
// same harness reproduces the same delays, yet two drivers seeded
// differently never stampede in sync.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/random.hpp"

namespace g500::util {

/// Exponential backoff schedule: attempt k (1-based) waits
/// min(base * kMultiplier^(k-1), kMaxSeconds) scaled by a deterministic
/// jitter factor drawn from [1 - kJitter, 1).
struct BackoffPolicy {
  static constexpr double kMultiplier = 2.0;  ///< growth per further attempt
  static constexpr double kMaxSeconds = 60.0;  ///< cap on the un-jittered delay
  static constexpr double kJitter = 0.5;  ///< fraction of the delay jittered

  double base_seconds = 1.0;    ///< delay charged for the first retry
  std::uint64_t seed = 0x0b0f;  ///< jitter stream seed

  /// Delay for the k-th retry (attempt >= 1).  attempt == 0 and a
  /// non-positive base both return 0.
  [[nodiscard]] double delay(std::uint64_t attempt) const noexcept {
    if (attempt == 0 || base_seconds <= 0.0) return 0.0;
    double d = base_seconds;
    for (std::uint64_t i = 1; i < attempt && d < kMaxSeconds; ++i) {
      d *= kMultiplier;
    }
    d = std::min(d, kMaxSeconds);
    const double u = to_unit_double(hash64(seed, attempt));
    return d * ((1.0 - kJitter) + kJitter * u);
  }
};

}  // namespace g500::util
