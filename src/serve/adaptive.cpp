#include "serve/adaptive.hpp"

#include <algorithm>
#include <cmath>

namespace g500::serve {

namespace {
/// EWMA smoothing of the arrival rate: the newest tick's weight.
constexpr double kEwmaAlpha = 0.25;
/// The knobs are re-derived every this many observed ticks.
constexpr std::uint64_t kAdjustPeriod = 4;
/// Knob ranges the controller moves within.
constexpr std::size_t kMinBatch = 1;
constexpr std::size_t kMaxBatch = 32;
constexpr std::uint64_t kMinWait = 1;
constexpr std::uint64_t kMaxWait = 8;
/// Queueing delay (ticks) a full batch should take to accumulate.
constexpr double kTargetWaitTicks = 2.0;
}  // namespace

AdaptiveBatchController::AdaptiveBatchController(std::size_t batch0,
                                                 std::uint64_t wait0)
    : batch_(std::clamp(batch0, kMinBatch, kMaxBatch)),
      wait_(std::clamp(wait0, kMinWait, kMaxWait)) {}

void AdaptiveBatchController::observe(std::uint64_t arrivals) {
  const auto x = static_cast<double>(arrivals);
  if (!primed_) {
    rate_ = x;
    primed_ = true;
  } else {
    rate_ = kEwmaAlpha * x + (1.0 - kEwmaAlpha) * rate_;
  }
  if (++ticks_since_adjust_ < kAdjustPeriod) return;
  ticks_since_adjust_ = 0;

  const auto want_batch = static_cast<std::size_t>(
      std::llround(std::max(0.0, rate_ * kTargetWaitTicks)));
  const std::size_t batch = std::clamp(want_batch, kMinBatch, kMaxBatch);
  // Deadline sized so the chosen batch actually fills at the current rate;
  // at very low rates the kMaxWait cap keeps latency bounded.
  const double fill_ticks = rate_ > 0.0
                                ? static_cast<double>(batch) / rate_
                                : static_cast<double>(kMaxWait);
  const std::uint64_t wait =
      std::clamp(static_cast<std::uint64_t>(std::llround(fill_ticks)),
                 kMinWait, kMaxWait);
  if (batch != batch_ || wait != wait_) ++adjustments_;
  batch_ = batch;
  wait_ = wait;
}

}  // namespace g500::serve
