#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/random.hpp"

namespace g500::serve {

namespace {
// Independent sub-streams of the workload seed, mixed into the per-tick
// engines so arrival counts and query contents never correlate.
constexpr std::uint64_t kArrivalStream = 0xa1;
constexpr std::uint64_t kQueryStream = 0x9e;
}  // namespace

Workload::Workload(WorkloadConfig config) : config_(std::move(config)) {
  if (config_.ticks == 0) {
    throw std::invalid_argument("Workload: ticks must be positive");
  }
  if (config_.arrivals_per_tick < 0.0 || config_.arrivals_per_tick > 1e4) {
    throw std::invalid_argument("Workload: arrivals_per_tick out of range");
  }
  if (config_.nearest_fraction < 0.0 || config_.nearest_fraction > 1.0) {
    throw std::invalid_argument("Workload: nearest_fraction not in [0,1]");
  }
  if (config_.roots.empty() && config_.nearest_fraction < 1.0) {
    throw std::invalid_argument(
        "Workload: point-to-point queries need a root universe");
  }
  if (config_.num_vertices == 0) {
    throw std::invalid_argument("Workload: num_vertices must be positive");
  }
  if (config_.analytics_fraction < 0.0 || config_.analytics_fraction > 1.0) {
    throw std::invalid_argument("Workload: analytics_fraction not in [0,1]");
  }
  // Kernel-draw CDF: every kernel equally likely.
  kernel_cdf_.reserve(kNumAnalyticsKernels);
  for (std::size_t k = 1; k <= kNumAnalyticsKernels; ++k) {
    kernel_cdf_.push_back(static_cast<double>(k) /
                          static_cast<double>(kNumAnalyticsKernels));
  }
  // Zipf CDF over the universe: p(k) proportional to 1/(k+1)^s.
  zipf_cdf_.reserve(config_.roots.size());
  double total = 0.0;
  for (std::size_t k = 0; k < config_.roots.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), config_.zipf_s);
    zipf_cdf_.push_back(total);
  }
  for (auto& c : zipf_cdf_) c /= total;
  // Arrival counts are cheap; precompute the prefix so query ids are a
  // pure function of the tick.
  id_base_.reserve(config_.ticks + 1);
  id_base_.push_back(0);
  for (std::uint64_t t = 0; t < config_.ticks; ++t) {
    id_base_.push_back(id_base_.back() + poisson_count(t));
  }
}

std::uint64_t Workload::poisson_count(std::uint64_t tick) const {
  if (config_.arrivals_per_tick <= 0.0) return 0;
  // Knuth's product method on a per-tick engine: deterministic, and exact
  // for small lambdas.  The product p underflows to 0 once -ln(p) passes
  // ~745, so exp(-lambda) == 0 for lambda beyond that and the raw method
  // would return a count pinned near 780 regardless of lambda.  Chunk the
  // rate instead: Poisson(lambda) is the sum of ceil(lambda/32)
  // independent Poisson(lambda/chunks) draws, each safely inside the
  // product method's range (exp(-32) ~ 1e-14).  A single chunk reproduces
  // the pre-chunking draw sequence exactly.
  util::SplitMix64 rng(
      util::hash64(config_.seed, kArrivalStream, tick));
  const auto chunks = static_cast<std::uint64_t>(
      std::ceil(config_.arrivals_per_tick / 32.0));
  const double limit = std::exp(-config_.arrivals_per_tick /
                                static_cast<double>(chunks));
  std::uint64_t total = 0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.next_double();
    } while (p > limit);
    total += k - 1;
  }
  return total;
}

std::vector<Query> Workload::arrivals(std::uint64_t tick) const {
  if (tick >= config_.ticks) return {};
  const std::uint64_t count = id_base_[tick + 1] - id_base_[tick];
  std::vector<Query> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = id_base_[tick] + i;
    util::SplitMix64 rng(util::hash64(config_.seed, kQueryStream, id));
    Query q;
    q.id = id;
    q.arrival_tick = tick;
    if (config_.deadline_ticks != 0) {
      q.deadline_tick = tick + config_.deadline_ticks;
    }
    // Class draw first, but only when the analytics class is active: a
    // fraction of 0 must not consume a variate, so distance-only traces
    // stay identical to the pre-mix generator.
    if (config_.analytics_fraction > 0.0 &&
        rng.next_double() < config_.analytics_fraction) {
      q.kind = QueryKind::kAnalytics;
      const double ku = rng.next_double();
      const auto kit =
          std::lower_bound(kernel_cdf_.begin(), kernel_cdf_.end(), ku);
      q.kernel = static_cast<AnalyticsKernel>(std::min<std::size_t>(
          static_cast<std::size_t>(kit - kernel_cdf_.begin()),
          kNumAnalyticsKernels - 1));
    } else {
      q.kind = rng.next_double() < config_.nearest_fraction
                   ? QueryKind::kNearestFacility
                   : QueryKind::kPointToPoint;
    }
    if (q.kind != QueryKind::kNearestFacility && !config_.roots.empty()) {
      const double u = rng.next_double();
      const auto it =
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
      const auto idx = static_cast<std::size_t>(
          std::min<std::ptrdiff_t>(it - zipf_cdf_.begin(),
                                   static_cast<std::ptrdiff_t>(
                                       config_.roots.size()) - 1));
      q.root = config_.roots[idx];
    }
    q.target = rng.next_below(config_.num_vertices);
    out.push_back(q);
  }
  return out;
}

std::vector<Query> Workload::trace() const {
  std::vector<Query> all;
  all.reserve(id_base_.back());
  for (std::uint64_t t = 0; t < config_.ticks; ++t) {
    const auto batch = arrivals(t);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

}  // namespace g500::serve
