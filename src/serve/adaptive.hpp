// Adaptive micro-batch sizing for the distance service.
//
// A fixed batch_size only fits one arrival rate: too small and the queue
// grows without bound under load, too large and sparse traffic waits out
// the full deadline every time.  The controller tracks the observed
// arrival rate with an EWMA and, every few ticks, re-derives both
// dispatch knobs from it (the smoothing weight and the period are
// constants in adaptive.cpp):
//
//   batch_size     = clamp(round(rate * target_wait_ticks))
//   max_wait_ticks = clamp(round(batch_size / rate))
//
// so a full batch accumulates in about target_wait_ticks at the current
// rate, and the deadline still bounds latency when traffic thins out.
//
// SPMD contract: every rank feeds the controller the identical per-tick
// arrival counts (the service's shared submission sequence), so the knob
// trajectory is deterministic and identical everywhere — dispatch
// decisions stay collective without any communication.
#pragma once

#include <cstddef>
#include <cstdint>

namespace g500::serve {

struct AdaptiveConfig {
  /// Off by default: the service uses its fixed batch_size/max_wait_ticks.
  bool enabled = false;

  /// Knob ranges the controller may move within.
  std::size_t min_batch = 1;
  std::size_t max_batch = 32;
  std::uint64_t min_wait_ticks = 1;
  std::uint64_t max_wait_ticks = 16;

  /// Queueing delay (ticks) a full batch should take to accumulate.
  double target_wait_ticks = 4.0;
};

class AdaptiveBatchController {
 public:
  /// `batch0` / `wait0` seed the knobs until the first adjustment (they
  /// are clamped into the configured ranges).  Throws std::invalid_argument
  /// on an inconsistent config (empty ranges, non-positive target).
  AdaptiveBatchController(const AdaptiveConfig& config, std::size_t batch0,
                          std::uint64_t wait0);

  /// Record one tick's arrival count.  Call exactly once per service tick,
  /// before reading the knobs for that tick's dispatch decision.
  void observe(std::uint64_t arrivals);

  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_; }
  [[nodiscard]] std::uint64_t max_wait_ticks() const noexcept {
    return wait_;
  }
  /// Smoothed arrivals per tick.
  [[nodiscard]] double rate() const noexcept { return rate_; }
  /// Times an adjustment actually changed a knob.
  [[nodiscard]] std::uint64_t adjustments() const noexcept {
    return adjustments_;
  }

 private:
  AdaptiveConfig config_;
  double rate_ = 0.0;
  bool primed_ = false;  ///< first observation seeds the EWMA directly
  std::uint64_t ticks_since_adjust_ = 0;
  std::size_t batch_;
  std::uint64_t wait_;
  std::uint64_t adjustments_ = 0;
};

}  // namespace g500::serve
