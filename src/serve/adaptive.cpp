#include "serve/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace g500::serve {

namespace {
/// EWMA smoothing of the arrival rate: the newest tick's weight.
constexpr double kEwmaAlpha = 0.25;
/// The knobs are re-derived every this many observed ticks.
constexpr std::uint64_t kAdjustPeriod = 4;
}  // namespace

AdaptiveBatchController::AdaptiveBatchController(const AdaptiveConfig& config,
                                                std::size_t batch0,
                                                std::uint64_t wait0)
    : config_(config) {
  if (config_.min_batch == 0 || config_.min_batch > config_.max_batch) {
    throw std::invalid_argument(
        "AdaptiveBatchController: need 1 <= min_batch <= max_batch");
  }
  if (config_.min_wait_ticks > config_.max_wait_ticks) {
    throw std::invalid_argument(
        "AdaptiveBatchController: need min_wait_ticks <= max_wait_ticks");
  }
  if (!(config_.target_wait_ticks > 0.0)) {
    throw std::invalid_argument(
        "AdaptiveBatchController: target_wait_ticks must be > 0");
  }
  batch_ = std::clamp(batch0, config_.min_batch, config_.max_batch);
  wait_ = std::clamp(wait0, config_.min_wait_ticks, config_.max_wait_ticks);
}

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

  const auto want_batch = static_cast<std::size_t>(std::llround(
      std::max(0.0, rate_ * config_.target_wait_ticks)));
  const std::size_t batch =
      std::clamp(want_batch, config_.min_batch, config_.max_batch);
  // Deadline sized so the chosen batch actually fills at the current rate;
  // at very low rates the max_wait_ticks cap keeps latency bounded.
  const double fill_ticks =
      rate_ > 0.0 ? static_cast<double>(batch) / rate_
                  : static_cast<double>(config_.max_wait_ticks);
  const std::uint64_t wait =
      std::clamp(static_cast<std::uint64_t>(std::llround(fill_ticks)),
                 config_.min_wait_ticks, config_.max_wait_ticks);
  if (batch != batch_ || wait != wait_) ++adjustments_;
  batch_ = batch;
  wait_ = wait;
}

}  // namespace g500::serve
