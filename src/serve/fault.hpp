// Fault-tolerance plumbing of the serving layer.
//
// The simulated-MPI world cannot survive a fault in place: an injected
// crash poisons every rank of the current World::run.  Serving therefore
// recovers the same way the resilient benchmark driver does — the retry
// loop lives OUTSIDE World::run (serve::run_workload_resilient) and
// everything that must survive an attempt sits in driver-owned "stable
// storage" declared here:
//
//   * core::CheckpointState snapshots let a crashed wave resume from its
//     last bucket epoch instead of from scratch;
//   * OracleSliceStore persists the landmark oracle's distance slices in
//     a versioned, digest-gated format so a restarted service skips the
//     precompute waves entirely (BlobWriter / BlobReader frame both of
//     its blobs);
//   * FaultLedger records which wave was in flight (rank-0 bookkeeping
//     between collectives, so a crash never tears it) — the driver uses
//     it to attribute the failure, budget per-key retries, and drive the
//     circuit breaker;
//   * FaultContext is the per-attempt view the driver hands each rank's
//     DistanceService: the snapshot/store slots, the resume key, the
//     abandoned-key list and the breaker state at attempt start.  A
//     service handed a snapshot slot checkpoints its full single-source
//     waves into it; one without a FaultContext (or a slot) never does.
//
// The circuit breaker itself follows the classic three-state protocol:
// closed (waves dispatch normally) -> open after K consecutive wave
// failures (cache/oracle-only; wave-needing queries degrade or fail) ->
// half-open once a cooldown timer expires (exactly one probe wave; its
// success closes the breaker, its failure re-opens it).  Open transitions
// are decided by the driver (it is the one that observes crashes); the
// timer and probe transitions are pure functions of the agreed submission
// sequence, so every rank computes them identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/checkpoint.hpp"
#include "graph/types.hpp"
#include "util/backoff.hpp"
#include "util/random.hpp"

namespace g500::serve {

/// Versioned persistence slot for one rank's landmark-oracle slices
/// ("next to" that rank's CheckpointState in the driver's stable
/// storage).  The blob is written by LandmarkOracle::save and adopted by
/// the constructor when its digest gate passes; any mismatch (format
/// version, graph shape, graph version, landmark config, engine knobs,
/// bit rot) falls back to a full recompute.
struct OracleSliceStore {
  /// Layout version of both blobs; bumped on any incompatible change.
  /// v2: the identity digest pins the graph_version, so slices persisted
  /// before a streaming mutation can never be adopted after one.
  static constexpr std::uint64_t kFormatVersion = 2;

  std::vector<std::uint8_t> blob;

  /// The exact point cache persisted alongside the slices (written by
  /// DistanceService::persist_point_cache, adopted by the service
  /// constructor behind its own digest gate).  Empty = nothing persisted.
  std::vector<std::uint8_t> point_blob;

  [[nodiscard]] bool valid() const noexcept { return !blob.empty(); }
  void clear() noexcept {
    blob.clear();
    point_blob.clear();
  }
};

/// Writes the framing both OracleSliceStore blobs share: a leading
/// kFormatVersion word, then the blob's own header words and payload,
/// then a trailing util::hash_bytes checksum over everything before it.
class BlobWriter {
 public:
  /// Starts `out` afresh with the version word.
  explicit BlobWriter(std::vector<std::uint8_t>& out) : out_(out) {
    out_.clear();
    put(OracleSliceStore::kFormatVersion);
  }

  void put(std::uint64_t word) { put_bytes(&word, sizeof(word)); }
  void put_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + size);
  }

  /// Appends the checksum; the blob is complete.
  void seal() { put(util::hash_bytes(out_.data(), out_.size())); }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Reads a blob BlobWriter framed.  Every read fails once the blob runs
/// short, and all of them fail when its version word is not
/// kFormatVersion (an empty blob included).
class BlobReader {
 public:
  explicit BlobReader(const std::vector<std::uint8_t>& in) : in_(in) {
    std::uint64_t version = 0;
    ok_ = get(version) && version == OracleSliceStore::kFormatVersion;
  }

  [[nodiscard]] bool get(std::uint64_t& word) noexcept {
    return get_bytes(&word, sizeof(word));
  }
  [[nodiscard]] bool get_bytes(void* out, std::size_t size) noexcept {
    if (!ok_ || size > in_.size() - pos_) {
      ok_ = false;
      return false;
    }
    if (size > 0) std::memcpy(out, in_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  /// True when exactly `payload_bytes` are left before the trailing
  /// checksum and the checksum matches the rest of the blob.
  [[nodiscard]] bool sealed(std::size_t payload_bytes) const noexcept {
    constexpr std::size_t kSum = sizeof(std::uint64_t);
    const std::size_t left = in_.size() - pos_;
    if (!ok_ || left < kSum || left - kSum != payload_bytes) return false;
    std::uint64_t stored = 0;
    std::memcpy(&stored, in_.data() + in_.size() - kSum, kSum);
    return util::hash_bytes(in_.data(), in_.size() - kSum) == stored;
  }

 private:
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

enum class BreakerState : std::uint8_t {
  kClosed,    ///< waves dispatch normally
  kOpen,      ///< cache/oracle-only; wave-needing queries degrade or fail
  kHalfOpen,  ///< one probe wave decides: success closes, failure re-opens
};

/// Breaker state carried across attempts (and ticks) by the driver.
struct BreakerStatus {
  BreakerState state = BreakerState::kClosed;
  std::uint64_t opened_tick = 0;     ///< when the breaker last opened
  int consecutive_failures = 0;      ///< crash streak feeding the threshold
};

/// Fault-tolerance knobs of the serving layer (ServeConfig::fault).  The
/// retry machinery itself runs only for a service handed a FaultContext
/// (see FaultContext::snapshot).
struct FaultToleranceConfig {
  /// Bucket epochs between wave snapshots (each wave's
  /// core::RunControl::checkpoint_interval; used by waves that get the
  /// FaultContext's snapshot slot).
  std::uint64_t checkpoint_interval = 4;

  /// World launches a single wave key may consume before the driver
  /// abandons it (its queries then degrade or fail).  Min 1.
  int max_wave_attempts = 3;

  /// Answer wave-exhausted / breaker-open point-to-point queries from the
  /// landmark oracle's lb/ub interval with Outcome::kDegraded instead of
  /// failing them.  Off by default: degraded answers are approximations
  /// and callers must opt in.
  bool degraded_answers = false;

  /// Consecutive wave failures that open the circuit breaker
  /// (0 = breaker disabled).
  int breaker_threshold = 0;

  /// Ticks an open breaker waits before half-opening for a probe wave.
  std::uint64_t breaker_cooldown_ticks = 16;

  /// Deadline propagation into the engine: a dispatched wave's
  /// core::RunControl::deadline_buckets = (ticks until the batch's tightest
  /// deadline) * this factor (0 = deadlines never truncate waves).
  std::uint64_t deadline_buckets_per_tick = 0;

  /// Seeded exponential backoff charged (in simulated seconds, not
  /// slept) for each retried attempt — shared with the core resilient
  /// benchmark driver so retry semantics cannot drift.
  util::BackoffPolicy backoff;
};

/// Cross-attempt bookkeeping written by rank 0 only, between collectives
/// (injected faults fire at collective entry, so these writes are never
/// torn) and read by the driver after World::run returns or throws.
struct FaultLedger {
  /// The wave dispatched most recently and not yet completed.  When the
  /// attempt dies with `wave_open` set, that key's retry budget is
  /// charged.  The facility wave's key is graph::kNoVertex, which no root
  /// can take.
  bool wave_open = false;
  graph::VertexId wave_key = graph::kNoVertex;

  /// Breaker state as of the last completed tick (rank-0 harvest).
  BreakerStatus breaker;
};

/// Per-attempt fault view the driver hands to DistanceService.  All
/// pointers refer to driver-owned stable storage and must outlive the
/// service.
struct FaultContext {
  /// This rank's wave snapshot slot (nullptr = waves never checkpoint).
  /// Every full single-source wave checkpoints into it, except that
  /// while it holds a crashed wave's progress the service passes it only
  /// to the wave whose key matches `resume_key` (a mismatched wave would
  /// clear the snapshot on its digest check and destroy that progress).
  core::CheckpointState* snapshot = nullptr;

  /// This rank's oracle persistence slot (nullptr = no persistence).
  OracleSliceStore* oracle_store = nullptr;

  /// Wave to resume from `snapshot`, when `has_resume` is set.
  bool has_resume = false;
  graph::VertexId resume_key = graph::kNoVertex;

  /// Keys whose retry budget is exhausted (graph::kNoVertex for the
  /// facility wave): their queries skip the wave and degrade or fail.
  /// Identical on every rank.
  std::vector<graph::VertexId> abandoned;

  /// Breaker state at attempt start (each rank copies it; transitions
  /// from here are deterministic).
  BreakerStatus breaker;

  /// Shared ledger (rank 0 writes; may be nullptr outside the driver).
  FaultLedger* ledger = nullptr;
};

/// The availability block of a serving run: how every query in the
/// workload ultimately ended, plus the retry/breaker machinery's audit
/// trail.  Enforced in BENCH_serving.json by check_report_schema.py.
struct AvailabilityStats {
  std::uint64_t served = 0;             ///< exact answers (cache/oracle/wave)
  std::uint64_t degraded = 0;           ///< answered from oracle lb/ub
  std::uint64_t deadline_exceeded = 0;  ///< expired waiters / truncated waves
  std::uint64_t failed = 0;             ///< no answer at all
  std::uint64_t shed = 0;               ///< bounced at admission

  std::uint64_t attempts = 1;        ///< World::run launches consumed
  std::uint64_t wave_retries = 0;    ///< failed attempts that were retried
  std::uint64_t waves_abandoned = 0; ///< keys that ran out of retry budget
  std::uint64_t breaker_opened = 0;
  std::uint64_t breaker_half_opened = 0;
  std::uint64_t breaker_closed = 0;
  std::uint64_t recovery_ticks = 0;  ///< simulated ticks lost to replay+backoff
  double backoff_seconds = 0.0;      ///< virtual retry delay charged
  bool oracle_restored = false;      ///< slices adopted from the store

  /// Fraction of completed queries that got a usable answer (exact or
  /// degraded).  Shed queries are excluded: admission control is load
  /// shedding, not a fault.
  [[nodiscard]] double availability() const noexcept {
    const std::uint64_t total = served + degraded + deadline_exceeded + failed;
    return total == 0
               ? 1.0
               : static_cast<double>(served + degraded) /
                     static_cast<double>(total);
  }
};

}  // namespace g500::serve
