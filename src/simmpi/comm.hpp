// simmpi — a simulated MPI-like SPMD runtime running every rank as a thread
// inside one process.
//
// Why this exists: the paper's substrate is a 107k-node supercomputer.  The
// reproduction runs the *same algorithm code* a real MPI rank would run, but
// transports messages through shared memory, so algorithmic behaviour
// (message volume, round counts, bucket dynamics) is bit-identical to a real
// distributed execution while remaining runnable on one machine.  Every
// collective records the traffic it would have put on a real interconnect
// (see stats.hpp); the net/ and model/ layers map that traffic onto a
// Sunway-like topology to produce scaling projections.
//
// Programming model: bulk-synchronous collectives only (barrier, alltoallv,
// allreduce, allgather[v], broadcast).  Record-scale graph codes aggregate
// all point-to-point traffic into alltoallv rounds anyway — at 40M cores,
// un-aggregated sends are not survivable — so the BSP-only interface is a
// feature, not a shortcut.
//
// Usage:
//   simmpi::World world(8);
//   world.run([&](simmpi::Comm& comm) {
//     std::vector<std::vector<int>> out(comm.size());
//     ... fill out[dst] ...
//     std::vector<int> in = comm.alltoallv(out);
//   });
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "simmpi/fault.hpp"
#include "simmpi/stats.hpp"
#include "simmpi/trace.hpp"
#include "util/random.hpp"

namespace g500::simmpi {

class World;

/// Thrown in surviving ranks when another rank exits with an exception, so
/// the whole SPMD program unwinds instead of deadlocking on a barrier.
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("simmpi: peer rank aborted") {}
};

/// Raised when the ranks of one collective disagree on what they entered:
/// a different operation, or elements of a different size.  The SPMD
/// lockstep is broken, so the world aborts before any rank reads a peer's
/// buffer.  The message names both ranks and both operations.
class CollectiveMismatchError : public std::logic_error {
 public:
  explicit CollectiveMismatchError(const std::string& what)
      : std::logic_error(what) {}
};

/// One asynchronously delivered point-to-point buffer: an aggregator flush
/// or a quiescence-control message.  Parcels bypass the barrier protocol
/// entirely — the receiver drains them whenever it polls.
struct Parcel {
  int src = -1;
  int tag = 0;
  std::vector<std::byte> bytes;
};

/// Why a parcel was deposited — drives the capacity/timeout flush split in
/// CommStats.
enum class SendReason : std::uint8_t {
  kCapacityFlush,  ///< destination buffer reached its capacity
  kTimeoutFlush,   ///< buffer aged out between polls / idle drain
  kManualFlush,    ///< explicit flush (end of phase)
  kControl,        ///< quiescence token / terminate (not a flush)
};

/// Handle a rank uses to communicate.  One per rank, owned by World; valid
/// only inside World::run.
class Comm {
 public:
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// Global synchronization point.
  void barrier();

  /// Personalized all-to-all: out[d] is the data for rank d (out.size() must
  /// equal size()).  Returns the received data concatenated in rank order.
  /// Data for self (out[rank()]) is delivered too but not counted as traffic.
  /// If `offsets` is non-null it receives P+1 prefix offsets: what rank s
  /// sent here is [offsets[s], offsets[s+1]).
  template <typename T>
  std::vector<T> alltoallv(const std::vector<std::vector<T>>& out,
                           std::vector<std::size_t>* offsets = nullptr);

  /// Reduce `value` across all ranks with `op` (must be associative and
  /// commutative); every rank gets the result.  Reduction order is rank
  /// 0..P-1, identical on all ranks, so results are deterministic.
  template <typename T, typename Op>
  T allreduce(T value, Op op);

  /// Sum / min / max conveniences.
  template <typename T>
  T allreduce_sum(T value) {
    return allreduce(value, [](T a, T b) { return a + b; });
  }
  template <typename T>
  T allreduce_min(T value) {
    return allreduce(value, [](T a, T b) { return b < a ? b : a; });
  }
  template <typename T>
  T allreduce_max(T value) {
    return allreduce(value, [](T a, T b) { return a < b ? b : a; });
  }

  /// Logical OR across ranks (any rank true).
  bool allreduce_or(bool value) {
    return allreduce_sum<std::uint32_t>(value ? 1u : 0u) != 0;
  }

  /// Element-wise reduction of equal-length vectors.
  template <typename T, typename Op>
  std::vector<T> allreduce_vec(const std::vector<T>& value, Op op);

  /// Gather one value per rank; every rank receives the full vector.
  template <typename T>
  std::vector<T> allgather(const T& value);

  /// Gather a variable-length vector per rank, concatenated in rank order.
  /// If `offsets` is non-null it receives P+1 prefix offsets.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& value,
                            std::vector<std::size_t>* offsets = nullptr);

  /// Broadcast `value` from `root` to all ranks.
  template <typename T>
  void broadcast(T& value, int root);

  /// Asynchronous point-to-point send: deposit a copy of
  /// [data, data + bytes) into `dst`'s mailbox.  NOT a collective — no
  /// barrier, no rank matching; the receiver sees it at its next
  /// poll_parcels().  Traffic lands in CommStats::p2p (self-sends excluded
  /// from the wire counters, like everywhere else) and `reason` feeds the
  /// capacity/timeout flush split.  The fault injector is consulted like a
  /// collective entry, so planned stalls/crashes can hit a flush.
  void send_parcel(int dst, int tag, const void* data, std::size_t bytes,
                   SendReason reason);

  /// Drain this rank's mailbox (non-blocking; parcels keep per-sender
  /// deposit order).  Throws AbortedError once any rank has failed — async
  /// receive loops poll this instead of sitting in a barrier, so a crashed
  /// peer unwinds them too.
  [[nodiscard]] std::vector<Parcel> poll_parcels();

  /// True when nothing is waiting in this rank's mailbox.
  [[nodiscard]] bool mailbox_empty() const;

  /// This rank's traffic record (reset via World::reset_stats).
  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }

  /// This rank's collective trace (empty unless World::enable_trace).
  [[nodiscard]] const std::vector<TraceEvent>& trace() const noexcept {
    return trace_;
  }

 private:
  friend class World;
  Comm(World& world, int rank) : world_(&world), rank_(rank) {}

  /// The operation a rank entered.  Finer than CollectiveKind: a scalar
  /// and a vector reduction (or allgather and allgatherv) publish
  /// different objects.
  enum class Operation : std::uint8_t {
    kBarrier,
    kAlltoallv,
    kAllreduce,
    kAllreduceVec,
    kAllgather,
    kAllgatherv,
    kBroadcast,
    /// Posted by World::run for a rank that returned: no operation matches.
    kDeparted,
  };

  /// What a rank entered; every rank checks every peer's against its own
  /// before it reads a peer's slot.
  struct Desc {
    Operation op;
    std::uint32_t elem_bytes;  // 0 for barrier
    bool operator==(const Desc&) const = default;
  };

  /// One rank's post at a collective.
  struct Post {
    const void* slot;
    Desc desc;
  };

  /// Post this rank's slot pointer and `desc`, wait until all ranks have,
  /// and check that they all entered `desc` (CollectiveMismatchError if
  /// not).
  void publish(const void* slot, Desc desc);
  /// Read rank r's published pointer (only between publish() and release()).
  [[nodiscard]] const void* peer(int r) const;
  /// Signal that this rank is done reading peers' data.
  void release();

  /// Mark the whole world failed with `ep`, then rethrow it.  Collectives
  /// route argument-validation errors and injected crashes through here so
  /// peers observe AbortedError at their next sync even if user code
  /// swallows the exception on the throwing rank — without this, a caught
  /// error would leave the surviving ranks pairing mismatched collectives.
  [[noreturn]] void fail(std::exception_ptr ep);

  /// Fault-injection hook at collective entry: consults the installed
  /// FaultInjector (if any); may throw InjectedCrashError (routed through
  /// fail) and charges injected stall time to stats / the pending trace
  /// event.
  void begin_collective(CollectiveKind kind);

  /// Append a trace event if tracing is on.
  void record(CollectiveKind kind, std::uint64_t bytes) {
    if (trace_enabled_) {
      trace_.push_back(TraceEvent{kind, bytes, stall_pending_});
    }
    stall_pending_ = 0.0;
  }

  World* world_;
  int rank_;
  CommStats stats_;
  bool trace_enabled_ = false;
  bool checksums_enabled_ = false;
  double stall_pending_ = 0.0;
  std::uint64_t calls_ = 0;  // collectives entered this run(), this one too
  std::vector<TraceEvent> trace_;
};

/// Owns the simulated machine: N ranks, the shared barrier, the slot array.
class World {
 public:
  /// num_ranks >= 1.  Each rank becomes one OS thread during run().
  explicit World(int num_ranks);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(comms_.size());
  }

  /// Execute `fn(comm)` once per rank, in parallel.  If any rank throws, the
  /// remaining ranks unwind with AbortedError and the first real exception
  /// is rethrown here.  Statistics accumulate across calls until
  /// reset_stats().
  void run(const std::function<void(Comm&)>& fn);

  /// run() and collect one result per rank.
  template <typename R>
  std::vector<R> run_collect(const std::function<R(Comm&)>& fn) {
    std::vector<R> results(comms_.size());
    run([&](Comm& comm) { results[comm.rank()] = fn(comm); });
    return results;
  }

  [[nodiscard]] const CommStats& rank_stats(int rank) const {
    return comms_.at(rank)->stats_;
  }

  /// Sum of all per-rank records (bytes_to becomes the row-sum vector).
  [[nodiscard]] CommStats aggregate_stats() const;

  void reset_stats();

  /// Start recording per-rank collective traces (cleared by reset_stats).
  void enable_trace(bool enabled = true);

  /// Verify alltoallv payloads end-to-end: the sender attaches a checksum
  /// per destination, the receiver recomputes after the copy.  A mismatch
  /// (i.e. injected or real corruption "on the wire") raises
  /// CorruptionError on every rank of the offending exchange.
  void enable_checksums(bool enabled = true);

  /// Install a deterministic fault schedule (replacing any existing one).
  /// The injector's per-rank counters are monotonic across run() calls, so
  /// a one-shot fault consumed by a failed run does not re-fire on retry.
  /// Call between runs only.
  void set_fault_plan(FaultPlan plan);
  void clear_fault_plan();
  [[nodiscard]] FaultInjector* injector() noexcept { return injector_.get(); }

  /// Merge the per-rank traces into a machine-wide round log.  Throws
  /// std::logic_error if rank sequences diverge (mismatched collectives).
  [[nodiscard]] std::vector<TraceRound> merged_trace() const;

  /// Machine-wide view of the aggregated point-to-point stream (totals and
  /// busiest sender), built from the per-rank CommStats.  The async analog
  /// of merged_trace(): what model::replay_async_trace prices.
  [[nodiscard]] P2pSummary p2p_summary() const;

 private:
  friend class Comm;

  /// One rank's incoming async message queue.
  struct Mailbox {
    std::mutex mutex;
    std::vector<Parcel> queue;
  };

  /// The barrier behind every collective phase.  The last rank to arrive
  /// resets the count and bumps the phase word; a waiter polls the word,
  /// yielding the CPU between polls, for a fixed budget and then parks on
  /// std::atomic::wait.  A yield hands the CPU to a peer still working on
  /// it, so the same path serves a world with more ranks than CPUs.
  class PhaseBarrier {
   public:
    explicit PhaseBarrier(int count) { reset(count); }

    /// Start over with `count` participants (between runs only).
    void reset(int count);
    /// Returns the phase this call completed.
    std::uint32_t arrive_and_wait();
    /// The phase open now.
    [[nodiscard]] std::uint32_t phase() const {
      return phase_.load(std::memory_order_relaxed);
    }
    /// Arrive at the current phase and leave every later one.
    void arrive_and_drop();

   private:
    /// Count one arrival at `phase`; the last one opens the next phase.
    /// Returns true if this arrival did.
    bool arrive(std::uint32_t phase);

    std::atomic<int> pending_;   // ranks still to arrive this phase
    std::atomic<int> expected_;  // participants of later phases
    // Own cache line: arrivals must not invalidate the line pollers read.
    alignas(64) std::atomic<std::uint32_t> phase_{0};
  };

  /// Barrier phase used by every collective; throws AbortedError in
  /// surviving ranks from the phase that was open when a rank failed.
  void sync();

  /// Record `ep` as the run's first error and flip the failed flag (the
  /// world-abort path shared by the run() wrapper, Comm::fail and the
  /// corruption rendezvous).
  void mark_failed(std::exception_ptr ep);

  /// Called by a receiving rank that detected a checksum mismatch on the
  /// payload src -> dst, before the release barrier; first detector wins.
  void flag_corruption(int src, int dst);

  /// After the release barrier of a checksummed alltoallv: raise
  /// CorruptionError on every rank if any link was flagged this round.
  void throw_if_corrupted();

  std::vector<std::unique_ptr<Comm>> comms_;
  PhaseBarrier barrier_;  // reset per run()
  // The slot array: two tables of posts, alternating by call index.
  // barrier() has no release phase, so a rank's next collective must not
  // overwrite the post a slower peer is still checking.
  std::array<std::vector<Comm::Post>, 2> posts_;
  // One mailbox per rank (unique_ptr: std::mutex is immovable).  Cleared at
  // the start of each run() so a failed run's stranded parcels cannot leak
  // into the next.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> failed_{false};
  std::atomic<std::uint32_t> failed_phase_{0};  // open when first_error_ set
  std::exception_ptr first_error_;
  std::mutex error_mutex_;

  std::unique_ptr<FaultInjector> injector_;
  std::atomic<bool> corrupted_{false};
  std::atomic<int> corrupt_src_{-1};
  std::atomic<int> corrupt_dst_{-1};
};

// ---------------------------------------------------------------------------
// Template implementations.
// ---------------------------------------------------------------------------

inline int Comm::size() const noexcept { return world_->size(); }

template <typename T>
std::vector<T> Comm::alltoallv(const std::vector<std::vector<T>>& out,
                               std::vector<std::size_t>* offsets) {
  static_assert(std::is_trivially_copyable_v<T>,
                "alltoallv payloads must be trivially copyable (they model "
                "wire data)");
  const int P = size();
  if (static_cast<int>(out.size()) != P) {
    fail(std::make_exception_ptr(
        std::invalid_argument("alltoallv: out.size() != world size")));
  }
  begin_collective(CollectiveKind::kAlltoallv);
  std::uint64_t call_bytes = 0;
  for (int d = 0; d < P; ++d) {
    if (d == rank_) continue;
    const std::uint64_t bytes = out[d].size() * sizeof(T);
    call_bytes += bytes;
    stats_.alltoallv.bytes += bytes;
    stats_.bytes_to[d] += bytes;
    if (!out[d].empty()) ++stats_.alltoallv.messages;
  }
  ++stats_.alltoallv.calls;
  record(CollectiveKind::kAlltoallv, call_bytes);

  // What goes "on the wire": the payload plus, when checksums are on, one
  // checksum per destination computed before transmission.
  struct Published {
    const std::vector<std::vector<T>>* data;
    const std::uint64_t* sums;  // per-destination, null when disabled
  };
  std::vector<std::uint64_t> sums;
  if (checksums_enabled_) {
    sums.resize(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      sums[d] = util::hash_bytes(out[d].data(), out[d].size() * sizeof(T));
    }
  }
  const Published pub{&out, checksums_enabled_ ? sums.data() : nullptr};

  publish(&pub, {Operation::kAlltoallv, sizeof(T)});
  const auto from = [&](int s) -> const Published& {
    return *static_cast<const Published*>(peer(s));
  };
  std::size_t total = 0;
  for (int s = 0; s < P; ++s) total += (*from(s).data)[rank_].size();
  std::vector<T> in;
  in.reserve(total);
  if (offsets != nullptr) {
    offsets->assign(1, 0);
    offsets->reserve(static_cast<std::size_t>(P) + 1);
  }
  FaultInjector* const faults = world_->injector();
  for (int s = 0; s < P; ++s) {
    const Published& src = from(s);
    const std::vector<T>& box = (*src.data)[rank_];
    // Copy once, into place: the source buffer is reused after release().
    const std::size_t at = in.size();
    in.insert(in.end(), box.begin(), box.end());
    const std::size_t bytes = (in.size() - at) * sizeof(T);
    if (faults != nullptr && s != rank_) {
      // Wire damage: after the sender's checksum, before verification.
      faults->corrupt_payload(rank_, s, in.data() + at, bytes);
    }
    if (src.sums != nullptr &&
        util::hash_bytes(in.data() + at, bytes) != src.sums[rank_]) {
      world_->flag_corruption(s, rank_);
    }
    if (offsets != nullptr) offsets->push_back(in.size());
  }
  release();
  if (checksums_enabled_) world_->throw_if_corrupted();
  return in;
}

template <typename T, typename Op>
T Comm::allreduce(T value, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int P = size();
  begin_collective(CollectiveKind::kAllreduce);
  stats_.allreduce.bytes += sizeof(T);  // logical: one contribution on the wire
  stats_.allreduce.messages += 1;
  ++stats_.allreduce.calls;
  record(CollectiveKind::kAllreduce, sizeof(T));

  publish(&value, {Operation::kAllreduce, sizeof(T)});
  // Every rank reduces in identical order => identical result bits.
  T result = *static_cast<const T*>(peer(0));
  for (int s = 1; s < P; ++s) {
    result = op(result, *static_cast<const T*>(peer(s)));
  }
  release();
  return result;
}

template <typename T, typename Op>
std::vector<T> Comm::allreduce_vec(const std::vector<T>& value, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int P = size();
  begin_collective(CollectiveKind::kAllreduce);
  stats_.allreduce.bytes += value.size() * sizeof(T);
  stats_.allreduce.messages += 1;
  ++stats_.allreduce.calls;
  record(CollectiveKind::kAllreduce, value.size() * sizeof(T));

  publish(&value, {Operation::kAllreduceVec, sizeof(T)});
  std::vector<T> result = *static_cast<const std::vector<T>*>(peer(0));
  for (int s = 1; s < P; ++s) {
    const auto& contrib = *static_cast<const std::vector<T>*>(peer(s));
    if (contrib.size() != result.size()) {
      release();
      fail(std::make_exception_ptr(
          std::invalid_argument("allreduce_vec: length mismatch")));
    }
    for (std::size_t i = 0; i < result.size(); ++i) {
      result[i] = op(result[i], contrib[i]);
    }
  }
  release();
  return result;
}

template <typename T>
std::vector<T> Comm::allgather(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int P = size();
  begin_collective(CollectiveKind::kAllgather);
  stats_.allgather.bytes += sizeof(T);
  stats_.allgather.messages += 1;
  ++stats_.allgather.calls;
  record(CollectiveKind::kAllgather, sizeof(T));

  publish(&value, {Operation::kAllgather, sizeof(T)});
  std::vector<T> result;
  result.reserve(P);
  for (int s = 0; s < P; ++s) {
    result.push_back(*static_cast<const T*>(peer(s)));
  }
  release();
  return result;
}

template <typename T>
std::vector<T> Comm::allgatherv(const std::vector<T>& value,
                                std::vector<std::size_t>* offsets) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int P = size();
  begin_collective(CollectiveKind::kAllgather);
  stats_.allgather.bytes += value.size() * sizeof(T);
  stats_.allgather.messages += 1;
  ++stats_.allgather.calls;
  record(CollectiveKind::kAllgather, value.size() * sizeof(T));

  publish(&value, {Operation::kAllgatherv, sizeof(T)});
  std::vector<T> result;
  if (offsets != nullptr) {
    offsets->assign(1, 0);
    offsets->reserve(static_cast<std::size_t>(P) + 1);
  }
  std::size_t total = 0;
  for (int s = 0; s < P; ++s) {
    total += static_cast<const std::vector<T>*>(peer(s))->size();
  }
  result.reserve(total);
  for (int s = 0; s < P; ++s) {
    const auto& contrib = *static_cast<const std::vector<T>*>(peer(s));
    result.insert(result.end(), contrib.begin(), contrib.end());
    if (offsets != nullptr) offsets->push_back(result.size());
  }
  release();
  return result;
}

template <typename T>
void Comm::broadcast(T& value, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (root < 0 || root >= size()) {
    fail(std::make_exception_ptr(
        std::invalid_argument("broadcast: bad root rank")));
  }
  begin_collective(CollectiveKind::kBroadcast);
  if (rank_ == root) {
    stats_.broadcast.bytes += sizeof(T);
    stats_.broadcast.messages += static_cast<std::uint64_t>(size()) - 1;
  }
  ++stats_.broadcast.calls;
  record(CollectiveKind::kBroadcast, rank_ == root ? sizeof(T) : 0);

  publish(&value, {Operation::kBroadcast, sizeof(T)});
  const T result = *static_cast<const T*>(peer(root));
  release();
  value = result;
}

}  // namespace g500::simmpi
