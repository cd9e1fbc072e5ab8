// JSON serialization of the serving layer's config, counters and run
// reports (docs/telemetry.md and docs/serving.md are the schema
// references).  Versioning follows the repo convention: bump on breaking
// changes only; added keys are non-breaking.
#pragma once

#include "serve/cache.hpp"
#include "serve/driver.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "util/json.hpp"

namespace g500::serve {

constexpr int kServingSchemaVersion = 1;

/// The full knob set (one field per ServeConfig member; facilities as an
/// array, the adaptive switch as adaptive.enabled).
[[nodiscard]] util::Json to_json(const ServeConfig& config);

/// Workload model: seed, horizon, arrival/popularity parameters, universe
/// size (not the universe itself — it can be large).
[[nodiscard]] util::Json to_json(const WorkloadConfig& config);

/// Cache counters: hits/misses/inserts/evictions/rejected, hit_rate,
/// residency and capacity.
[[nodiscard]] util::Json to_json(const CacheStats& stats);

/// Service counters plus the interpolated p50/p90/p99 of each histogram.
[[nodiscard]] util::Json to_json(const ServiceMetrics& metrics);

/// Availability block: per-outcome counts, the availability ratio and the
/// retry/breaker audit trail.
[[nodiscard]] util::Json to_json(const AvailabilityStats& stats);

/// One workload run: metrics, availability, ticks, wall seconds,
/// throughput_qps.
[[nodiscard]] util::Json to_json(const ServingRunReport& report);

}  // namespace g500::serve
