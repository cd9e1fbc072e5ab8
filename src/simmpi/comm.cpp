#include "simmpi/comm.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

namespace g500::simmpi {

namespace {

/// Polls of the phase word before a waiter parks: about 70 us when the
/// yields find nothing else to run on a 4-vCPU Xeon, far above the
/// microsecond or two a balanced collective waits, yet short enough that a
/// rank stuck behind a slow peer soon stops asking the scheduler for the
/// CPU.
constexpr int kPollBudget = 200;

}  // namespace

void CommStats::merge(const CommStats& other) {
  alltoallv.merge(other.alltoallv);
  allreduce.merge(other.allreduce);
  allgather.merge(other.allgather);
  broadcast.merge(other.broadcast);
  p2p.merge(other.p2p);
  p2p_flush_capacity += other.p2p_flush_capacity;
  p2p_flush_timeout += other.p2p_flush_timeout;
  barriers += other.barriers;
  stall_seconds += other.stall_seconds;
  if (other.bytes_to.size() > bytes_to.size()) {
    bytes_to.resize(other.bytes_to.size(), 0);
  }
  for (std::size_t i = 0; i < other.bytes_to.size(); ++i) {
    bytes_to[i] += other.bytes_to[i];
  }
}

World::World(int num_ranks) : barrier_(num_ranks) {
  if (num_ranks < 1) {
    throw std::invalid_argument("simmpi::World needs at least one rank");
  }
  comms_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    comms_.emplace_back(new Comm(*this, r));
    comms_.back()->stats_.resize(static_cast<std::size_t>(num_ranks));
  }
  for (auto& table : posts_) {
    table.assign(static_cast<std::size_t>(num_ranks), Comm::Post{});
  }
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    mailboxes_.emplace_back(std::make_unique<Mailbox>());
  }
}

void World::PhaseBarrier::reset(int count) {
  pending_.store(count, std::memory_order_relaxed);
  expected_.store(count, std::memory_order_relaxed);
}

// The acq_rel arrivals form one release sequence on pending_, so the last
// arrival synchronizes with every earlier one; its release store of the
// phase then hands everything written before any arrival (slots, posts,
// the failed flag) to each waiter's acquire load.
bool World::PhaseBarrier::arrive(std::uint32_t phase) {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
  pending_.store(expected_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  phase_.store(phase + 1, std::memory_order_release);
  phase_.notify_all();
  return true;
}

std::uint32_t World::PhaseBarrier::arrive_and_wait() {
  // The phase cannot advance before this rank arrives, so the value read
  // here is the phase being entered.
  const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
  if (arrive(phase)) return phase;
  for (int i = 0; i < kPollBudget; ++i) {
    if (phase_.load(std::memory_order_acquire) != phase) return phase;
    std::this_thread::yield();
  }
  phase_.wait(phase, std::memory_order_acquire);
  return phase;
}

void World::PhaseBarrier::arrive_and_drop() {
  // Lowered before arriving, so whichever arrival completes this phase
  // already counts the later phases without this rank.
  expected_.fetch_sub(1, std::memory_order_relaxed);
  (void)arrive(phase_.load(std::memory_order_relaxed));
}

void World::sync() {
  const std::uint32_t phase = barrier_.arrive_and_wait();
  // Abort from the phase that was open when the run failed on.  A slow rank
  // still leaving an earlier phase runs on to its next collective, so every
  // rank does the same work between two collectives, snapshots included.
  // The unsigned difference stays right when the phase word wraps.
  if (failed_.load(std::memory_order_acquire) &&
      phase - failed_phase_.load(std::memory_order_relaxed) < (1u << 31)) {
    throw AbortedError{};
  }
}

void Comm::barrier() {
  begin_collective(CollectiveKind::kBarrier);
  ++stats_.barriers;
  record(CollectiveKind::kBarrier, 0);
  publish(nullptr, {Operation::kBarrier, 0});
}

void Comm::publish(const void* slot, Desc mine) {
  std::vector<Post>& posts = world_->posts_[calls_++ & 1];
  posts[static_cast<std::size_t>(rank_)] = {slot, mine};
  world_->sync();
  for (int r = 0; r < size(); ++r) {
    const Desc& theirs = posts[static_cast<std::size_t>(r)].desc;
    if (theirs == mine) continue;
    auto describe = [](const Desc& d) {
      static constexpr const char* kNames[] = {
          "barrier",   "alltoallv",  "allreduce", "allreduce_vec",
          "allgather", "allgatherv", "broadcast"};
      std::string s = kNames[static_cast<std::size_t>(d.op)];
      if (d.elem_bytes != 0) s += "<" + std::to_string(d.elem_bytes) + " B>";
      return s;
    };
    const std::string what_they_did = theirs.op == Operation::kDeparted
                                          ? "had returned from run()"
                                          : "entered " + describe(theirs);
    fail(std::make_exception_ptr(CollectiveMismatchError(
        "simmpi: collective mismatch: rank " + std::to_string(rank_) +
        " entered " + describe(mine) + " while rank " + std::to_string(r) +
        " " + what_they_did)));
  }
}

void Comm::fail(std::exception_ptr ep) {
  world_->mark_failed(ep);
  std::rethrow_exception(ep);
}

void Comm::begin_collective(CollectiveKind kind) {
  FaultInjector* const injector = world_->injector_.get();
  if (injector == nullptr) return;
  double stall = 0.0;
  try {
    stall = injector->on_collective(rank_, kind);
  } catch (...) {
    // An injected crash must abort the peers even if user code catches the
    // InjectedCrashError — the victim never reaches the collective it was
    // counted for, so its peers would otherwise pair mismatched calls.
    fail(std::current_exception());
  }
  if (stall > 0.0) {
    stats_.stall_seconds += stall;
    stall_pending_ += stall;
  }
}

void Comm::send_parcel(int dst, int tag, const void* data, std::size_t bytes,
                       SendReason reason) {
  if (dst < 0 || dst >= size()) {
    fail(std::make_exception_ptr(
        std::invalid_argument("send_parcel: bad destination rank")));
  }
  if (world_->failed_.load(std::memory_order_acquire)) throw AbortedError{};
  // Fault hook: planned stalls/crashes can target a flush like any
  // collective entry.  Parcels are never recorded in the collective trace —
  // they are unmatched across ranks, and merged_trace() requires alignment.
  begin_collective(CollectiveKind::kPoint2Point);
  switch (reason) {
    case SendReason::kCapacityFlush:
      ++stats_.p2p_flush_capacity;
      break;
    case SendReason::kTimeoutFlush:
      ++stats_.p2p_flush_timeout;
      break;
    case SendReason::kManualFlush:
    case SendReason::kControl:
      break;
  }
  if (dst != rank_) {
    ++stats_.p2p.calls;
    stats_.p2p.bytes += bytes;
    ++stats_.p2p.messages;
  }
  Parcel parcel;
  parcel.src = rank_;
  parcel.tag = tag;
  parcel.bytes.resize(bytes);
  if (bytes != 0) std::memcpy(parcel.bytes.data(), data, bytes);
  World::Mailbox& box = *world_->mailboxes_[static_cast<std::size_t>(dst)];
  const std::lock_guard<std::mutex> lock(box.mutex);
  box.queue.push_back(std::move(parcel));
}

std::vector<Parcel> Comm::poll_parcels() {
  if (world_->failed_.load(std::memory_order_acquire)) throw AbortedError{};
  World::Mailbox& box = *world_->mailboxes_[static_cast<std::size_t>(rank_)];
  std::vector<Parcel> drained;
  const std::lock_guard<std::mutex> lock(box.mutex);
  drained.swap(box.queue);
  return drained;
}

bool Comm::mailbox_empty() const {
  World::Mailbox& box = *world_->mailboxes_[static_cast<std::size_t>(rank_)];
  const std::lock_guard<std::mutex> lock(box.mutex);
  return box.queue.empty();
}

const void* Comm::peer(int r) const {
  return world_->posts_[(calls_ - 1) & 1][static_cast<std::size_t>(r)].slot;
}

void Comm::release() { world_->sync(); }

void World::mark_failed(std::exception_ptr ep) {
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) {
      first_error_ = ep;
      failed_phase_.store(barrier_.phase(), std::memory_order_relaxed);
    }
  }
  failed_.store(true, std::memory_order_release);
}

void World::flag_corruption(int src, int dst) {
  bool expected = false;
  if (corrupted_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    corrupt_src_.store(src, std::memory_order_release);
    corrupt_dst_.store(dst, std::memory_order_release);
  }
}

void World::throw_if_corrupted() {
  if (!corrupted_.load(std::memory_order_acquire)) return;
  const int src = corrupt_src_.load(std::memory_order_acquire);
  const int dst = corrupt_dst_.load(std::memory_order_acquire);
  // Every rank of the exchange reaches this point (the flag is set before
  // the release barrier), so all ranks throw together: fail-stop semantics
  // with rank-consistent unwind depths.
  auto ep = std::make_exception_ptr(CorruptionError(
      "simmpi: alltoallv payload checksum mismatch on link " +
      std::to_string(src) + " -> " + std::to_string(dst)));
  mark_failed(ep);
  std::rethrow_exception(ep);
}

void World::enable_checksums(bool enabled) {
  for (auto& comm : comms_) comm->checksums_enabled_ = enabled;
}

void World::set_fault_plan(FaultPlan plan) {
  injector_ = std::make_unique<FaultInjector>(std::move(plan), size());
}

void World::clear_fault_plan() { injector_.reset(); }

void World::run(const std::function<void(Comm&)>& fn) {
  // Fresh barrier counts each run: a failed previous run leaves dropped
  // participants behind, and normal completion must start from a clean
  // expected-count anyway.  Call indices restart with it, so every rank
  // posts its first descriptor to the same table.
  barrier_.reset(size());
  for (auto& comm : comms_) comm->calls_ = 0;
  failed_.store(false, std::memory_order_release);
  first_error_ = nullptr;
  corrupted_.store(false, std::memory_order_release);
  corrupt_src_.store(-1, std::memory_order_release);
  corrupt_dst_.store(-1, std::memory_order_release);
  for (auto& box : mailboxes_) {
    const std::lock_guard<std::mutex> lock(box->mutex);
    box->queue.clear();
  }

  auto body = [&](Comm& comm) {
    try {
      fn(comm);
    } catch (const AbortedError&) {
      // Peer failed first; unwind quietly but release the barrier for any
      // rank still waiting on a phase.
      barrier_.arrive_and_drop();
      return;
    } catch (...) {
      mark_failed(std::current_exception());
      barrier_.arrive_and_drop();
      return;
    }
    // A rank that returns leaves the lockstep as well.  It posts a
    // departure where its next collective would post, so a peer entering
    // one raises CollectiveMismatchError instead of waiting forever.  No
    // peer still reads that table: every peer has reached this rank's last
    // collective, so all are done with the one before it.
    posts_[comm.calls_ & 1][static_cast<std::size_t>(comm.rank_)] = {
        nullptr, {Comm::Operation::kDeparted, 0}};
    barrier_.arrive_and_drop();
  };

  if (comms_.size() == 1) {
    body(*comms_[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(comms_.size());
    for (auto& comm : comms_) {
      threads.emplace_back([&body, &comm] { body(*comm); });
    }
    for (auto& t : threads) t.join();
  }

  if (first_error_) std::rethrow_exception(first_error_);
  if (failed_.load(std::memory_order_acquire)) throw AbortedError{};
}

CommStats World::aggregate_stats() const {
  CommStats total;
  total.resize(comms_.size());
  for (const auto& comm : comms_) total.merge(comm->stats_);
  return total;
}

void World::reset_stats() {
  for (auto& comm : comms_) {
    comm->stats_.clear();
    comm->trace_.clear();
  }
}

void World::enable_trace(bool enabled) {
  for (auto& comm : comms_) comm->trace_enabled_ = enabled;
}

P2pSummary World::p2p_summary() const {
  P2pSummary summary;
  for (const auto& comm : comms_) {
    const CommStats& s = comm->stats_;
    summary.flushes += s.p2p.calls;
    summary.messages += s.p2p.messages;
    summary.bytes += s.p2p.bytes;
    summary.max_rank_bytes = std::max(summary.max_rank_bytes, s.p2p.bytes);
    summary.flush_capacity += s.p2p_flush_capacity;
    summary.flush_timeout += s.p2p_flush_timeout;
  }
  return summary;
}

std::vector<TraceRound> World::merged_trace() const {
  const std::size_t length = comms_.front()->trace_.size();
  for (const auto& comm : comms_) {
    if (comm->trace_.size() != length) {
      throw std::logic_error(
          "merged_trace: rank trace lengths diverge (mismatched "
          "collectives)");
    }
  }
  std::vector<TraceRound> rounds(length);
  for (std::size_t i = 0; i < length; ++i) {
    rounds[i].kind = comms_.front()->trace_[i].kind;
    for (const auto& comm : comms_) {
      const TraceEvent& event = comm->trace_[i];
      if (event.kind != rounds[i].kind) {
        throw std::logic_error(
            "merged_trace: rank collective kinds diverge at round " +
            std::to_string(i));
      }
      rounds[i].total_bytes += event.bytes;
      rounds[i].max_rank_bytes = std::max(rounds[i].max_rank_bytes,
                                          event.bytes);
      rounds[i].stall_seconds =
          std::max(rounds[i].stall_seconds, event.stall_seconds);
    }
  }
  return rounds;
}

}  // namespace g500::simmpi
