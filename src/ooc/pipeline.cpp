#include "ooc/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "graph/partition.hpp"
#include "graph/shard.hpp"
#include "util/radix_sort.hpp"
#include "util/timer.hpp"

namespace g500::ooc {
namespace {

namespace fs = std::filesystem;
using graph::VertexId;
using graph::Weight;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("ooc pipeline: " + what);
}

/// 16-byte directed edge with a localized source — the run-file record.
struct RunEdge {
  std::uint64_t dst;
  std::uint32_t src;  // local index on the owning rank
  float w;
};
static_assert(sizeof(RunEdge) == 16);

/// Run order (src, w, dst): a shard row's order, and the in-memory
/// builders' sort, so the first copy of each (src, dst) is its least
/// weight.  A run is radix-sorted by run_key with run_less breaking the
/// ties; the pack merge compares all three with merge_less.
constexpr auto run_key = [](const RunEdge& e) { return e.src; };
constexpr auto run_dst = [](const RunEdge& e) { return e.dst; };
constexpr auto run_less = [](const RunEdge& a, const RunEdge& b) {
  if (a.w != b.w) return a.w < b.w;
  return a.dst < b.dst;
};
constexpr auto merge_less = [](const RunEdge& a, const RunEdge& b) {
  if (a.src != b.src) return a.src < b.src;
  return run_less(a, b);
};

/// Charges every pipeline allocation against the per-rank budget.  The
/// pipeline throws the moment a charge would exceed the cap — out-of-core
/// means bounded memory by construction, not by hope.  One holder is
/// charged late: the sort thread's seen set, whose growth in a run is
/// charged when that run's buffer comes back (see the bin stage), so the
/// high-water mark stays deterministic.
class Budget {
 public:
  explicit Budget(std::uint64_t cap) : cap_(cap) {}

  void acquire(std::uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    now_ += bytes;
    if (now_ > peak_) peak_ = now_;
    if (now_ > cap_) {
      fail("resident budget exceeded (" + std::to_string(now_) +
           " bytes held, cap " + std::to_string(cap_) + ")");
    }
  }
  void release(std::uint64_t bytes) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    now_ -= std::min(bytes, now_);
  }
  [[nodiscard]] std::uint64_t peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  std::uint64_t cap_;
  std::uint64_t now_ = 0;
  std::uint64_t peak_ = 0;
  mutable std::mutex mu_;
};

/// Charge what a growing holder adds since the last call; release
/// charged() when done with it.
class GrowthCharge {
 public:
  explicit GrowthCharge(Budget& budget) : budget_(budget) {}
  void update(std::uint64_t bytes) {
    if (bytes > charged_) {
      budget_.acquire(bytes - charged_);
      charged_ = bytes;
    }
  }
  [[nodiscard]] std::uint64_t charged() const noexcept { return charged_; }

 private:
  Budget& budget_;
  std::uint64_t charged_ = 0;
};

/// Single-producer single-consumer bounded handoff queue (the bin -> sort
/// pipeline coupling; depth bounds how many runs are in flight).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t depth) : depth_(depth) {}

  void push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_space_.wait(lock, [&] { return q_.size() < depth_ || closed_; });
    if (closed_) return;
    q_.push(std::move(item));
    cv_item_.notify_one();
  }
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_item_.wait(lock, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop();
    cv_space_.notify_one();
    return true;
  }
  /// Drop every queued item.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    q_ = {};
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_item_.notify_all();
    cv_space_.notify_all();
  }

 private:
  std::size_t depth_;
  bool closed_ = false;
  std::queue<T> q_;
  std::mutex mu_;
  std::condition_variable cv_item_, cv_space_;
};

/// Buffered sequential reader over a binary file of T records, budget-
/// charged for its read buffer.
template <typename T>
class RunReader {
 public:
  RunReader(const std::string& path, std::size_t buf_items, Budget& budget)
      : in_(path, std::ios::binary),
        path_(path),
        budget_(&budget),
        cap_(std::max<std::size_t>(1, buf_items)) {
    if (!in_) fail("cannot reopen spilled run " + path);
    budget.acquire(cap_ * sizeof(T));
    refill();
  }
  ~RunReader() {
    if (budget_ != nullptr) budget_->release(cap_ * sizeof(T));
  }
  RunReader(const RunReader&) = delete;
  RunReader& operator=(const RunReader&) = delete;

  [[nodiscard]] bool empty() const { return pos_ >= buf_.size(); }
  [[nodiscard]] const T& head() const { return buf_[pos_]; }
  void advance() {
    if (++pos_ >= buf_.size() && !done_) refill();
  }

 private:
  void refill() {
    buf_.resize(cap_);
    in_.read(reinterpret_cast<char*>(buf_.data()),
             static_cast<std::streamsize>(cap_ * sizeof(T)));
    const auto got_bytes = static_cast<std::size_t>(in_.gcount());
    if (got_bytes % sizeof(T) != 0) {
      fail("spilled run " + path_ + " has a torn record");
    }
    buf_.resize(got_bytes / sizeof(T));
    pos_ = 0;
    if (buf_.size() < cap_) done_ = true;
  }

  std::ifstream in_;
  std::string path_;
  Budget* budget_;
  std::size_t cap_;
  std::vector<T> buf_;
  std::size_t pos_ = 0;
  bool done_ = false;
};

/// Byte-counting buffered writer for run files and the w temporary.
class TempWriter {
 public:
  explicit TempWriter(std::string path)
      : path_(std::move(path)), out_(path_, std::ios::binary) {
    if (!out_) fail("cannot create temporary " + path_);
  }
  template <typename T>
  void append(const T* data, std::size_t count) {
    out_.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(count * sizeof(T)));
    bytes_ += count * sizeof(T);
  }
  void close() {
    out_.close();
    if (out_.fail()) fail("write to temporary " + path_ + " failed");
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::uint64_t bytes_ = 0;
};

/// Records pushed one at a time and handed to `sink` a fixed block at a
/// time.  The block is charged to the budget as a RunReader's buffer is.
template <typename T>
class BlockWriter {
 public:
  using Sink = std::function<void(std::span<const T>)>;

  BlockWriter(std::size_t block_items, Budget& budget, Sink sink)
      : budget_(budget), cap_(block_items), sink_(std::move(sink)) {
    budget_.acquire(cap_ * sizeof(T));
    block_.reserve(cap_);
  }
  ~BlockWriter() { budget_.release(cap_ * sizeof(T)); }
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  void push(const T& x) {
    block_.push_back(x);
    if (block_.size() == cap_) flush();
  }
  /// Hand the partial block to the sink.
  void flush() {
    if (!block_.empty()) sink_(block_);
    block_.clear();
  }

 private:
  Budget& budget_;
  std::size_t cap_;
  Sink sink_;
  std::vector<T> block_;
};

/// K-way merge over sorted run files: a tree of losers over copies of the
/// runs' heads.  Leaf i is node k + i, node n in [1, k) holds the run that
/// lost the match there and node 0 the winner, whose head is the merge's.
/// Advancing replays one leaf-to-root path, at most ceil(log2 k)
/// comparisons of the copies, never a reader's buffer.  A run that has
/// ended loses every match.
template <typename T, typename Less>
class LoserTree {
 public:
  LoserTree(std::vector<std::unique_ptr<RunReader<T>>> readers, Less less)
      : readers_(std::move(readers)),
        less_(std::move(less)),
        heads_(readers_.size()),
        ended_(readers_.size()),
        tree_(std::max<std::size_t>(1, readers_.size())) {
    const std::size_t k = readers_.size();
    for (std::size_t i = 0; i < k; ++i) load(i);
    // winner[n]: the winner of node n's subtree, played bottom up.
    std::vector<std::size_t> winner(2 * k);
    for (std::size_t i = 0; i < k; ++i) winner[k + i] = i;
    for (std::size_t n = k; n-- > 1;) {
      const std::size_t a = winner[2 * n];
      const std::size_t b = winner[2 * n + 1];
      const bool b_wins = beats(b, a);
      winner[n] = b_wins ? b : a;
      tree_[n] = b_wins ? a : b;
    }
    if (k > 0) tree_[0] = winner[1];
  }

  [[nodiscard]] bool empty() const {
    return readers_.empty() || ended_[tree_[0]] != 0;
  }
  [[nodiscard]] const T& head() const { return heads_[tree_[0]]; }
  void advance() {
    std::size_t w = tree_[0];
    readers_[w]->advance();
    load(w);
    for (std::size_t n = (readers_.size() + w) / 2; n > 0; n /= 2) {
      if (beats(tree_[n], w)) std::swap(tree_[n], w);
    }
    tree_[0] = w;
  }

 private:
  void load(std::size_t i) {
    ended_[i] = readers_[i]->empty() ? 1 : 0;
    if (ended_[i] == 0) heads_[i] = readers_[i]->head();
  }
  [[nodiscard]] bool beats(std::size_t a, std::size_t b) const {
    return ended_[a] == 0 && (ended_[b] != 0 || less_(heads_[a], heads_[b]));
  }

  std::vector<std::unique_ptr<RunReader<T>>> readers_;
  Less less_;
  std::vector<T> heads_;
  std::vector<char> ended_;
  std::vector<std::size_t> tree_;
};

std::string tmp_name(const std::string& dir, int rank, const char* kind,
                     std::size_t index) {
  return dir + "/ooc_r" + std::to_string(rank) + "_" + kind + "_" +
         std::to_string(index) + ".tmp";
}

/// Stream the w temporary into the shard writer in bounded chunks.
template <typename T, typename Append>
void stream_section(const std::string& path, Budget& budget,
                    std::size_t chunk_items, Append append) {
  budget.acquire(chunk_items * sizeof(T));
  std::vector<T> buf(chunk_items);
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot reopen temporary " + path);
  for (;;) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(chunk_items * sizeof(T)));
    const auto got = static_cast<std::size_t>(in.gcount()) / sizeof(T);
    if (got == 0) break;
    append(std::span<const T>(buf.data(), got));
    if (got < chunk_items) break;
  }
  budget.release(chunk_items * sizeof(T));
}

}  // namespace

util::Json to_json(const BuildPipelineStats& stats) {
  const auto stage = [](const StageStats& s) {
    util::Json j = util::Json::object();
    j["edges"] = s.edges;
    j["bytes"] = s.bytes;
    j["seconds"] = s.seconds;
    j["meps"] = s.meps();
    return j;
  };
  util::Json j = util::Json::object();
  j["bin"] = stage(stats.bin);
  j["sort"] = stage(stats.sort);
  j["pack"] = stage(stats.pack);
  j["runs_spilled"] = stats.runs_spilled;
  j["spilled_bytes"] = stats.spilled_bytes;
  j["shard_bytes"] = stats.shard_bytes;
  j["peak_resident_bytes"] = stats.peak_resident_bytes;
  j["budget_bytes"] = stats.budget_bytes;
  j["total_seconds"] = stats.total_seconds;
  return j;
}

BuildPipelineStats build_sharded_kronecker(simmpi::Comm& comm,
                                           const graph::KroneckerParams& params,
                                           const std::string& shard_dir,
                                           const PipelineOptions& opts) {
  params.check();
  const int P = comm.size();
  const int r = comm.rank();
  const VertexId n = params.num_vertices();
  const graph::BlockPartition part(n, P);
  const VertexId my_begin = part.begin(r);
  const std::uint64_t num_local = part.count(r);
  const std::string scratch =
      opts.scratch_dir.empty() ? shard_dir : opts.scratch_dir;
  if (r == 0) {
    fs::create_directories(shard_dir);
    fs::create_directories(scratch);
  }
  comm.barrier();

  Budget budget(opts.resident_budget_bytes);
  util::Timer total_timer;

  // The two run buffers are the big holders.  A sixth of the budget each
  // leaves two thirds for chunk exchange and the pack-phase buffers.  A
  // loose budget is additionally bounded by what the rank will stage at
  // all (~2 directed edges per input tuple) so small builds don't reserve
  // gratuitously large runs.
  const std::uint64_t expected_staged =
      2 * (params.num_edges() / static_cast<std::uint64_t>(P) + 1) *
      sizeof(RunEdge);
  const std::uint64_t run_bytes = std::max<std::uint64_t>(
      64u << 10,
      std::min(opts.resident_budget_bytes / 6, expected_staged));
  const std::size_t run_capacity =
      static_cast<std::size_t>(run_bytes / sizeof(RunEdge));

  // ---- sort stage: worker thread, overlapped with bin ----
  // The bin stage owns two run buffers.  It fills one while the sort thread
  // sorts and spills the other, which comes back through `spare` emptied,
  // its capacity kept, together with the size the sort thread's seen set
  // had after that run.  Every job hands its buffer back, a failed one
  // included, so the bin stage never waits for a buffer that cannot come.
  struct SortJob {
    std::vector<RunEdge> edges;
    std::string path;
    std::uint64_t seen_bytes = 0;
  };
  struct SorterState {
    double seconds = 0.0;
    std::uint64_t edges = 0;
    std::uint64_t bytes = 0;
    std::uint64_t seen_bytes = 0;  // read after the join
    std::exception_ptr error;  // written before `failed`, read after
    std::atomic<bool> failed{false};
  };
  SorterState sorter;
  BoundedQueue<SortJob> jobs(1);
  BoundedQueue<SortJob> spare(2);
  std::thread sort_thread([&] {
    graph::SeenSet seen;
    SortJob job;
    while (jobs.pop(job)) {
      auto& edges = job.edges;
      try {
        util::Timer timer;
        util::radix_sort(edges.begin(), edges.end(), run_key, run_less);
        // Within-run dedup: the first of each (src, dst) is its run
        // minimum; the pack merge applies the same rule across runs.
        graph::keep_first_copies(edges, run_key, run_dst, seen);
        TempWriter out(job.path);
        out.append(edges.data(), edges.size());
        out.close();
        sorter.seconds += timer.seconds();
        sorter.edges += edges.size();
        sorter.bytes += out.bytes();
      } catch (...) {
        sorter.error = std::current_exception();
        sorter.failed.store(true);
      }
      edges.clear();
      job.seen_bytes = sorter.seen_bytes = seen.bytes();
      spare.push(std::move(job));
    }
  });
  // If anything below throws (budget overflow, I/O failure), the queues must
  // close and the worker join before `sort_thread` unwinds, or std::thread's
  // destructor would terminate the process.
  struct JoinGuard {
    BoundedQueue<SortJob>& jobs;
    BoundedQueue<SortJob>& spare;
    std::thread& worker;
    ~JoinGuard() {
      jobs.close();
      spare.close();
      if (worker.joinable()) worker.join();
    }
  } join_guard{jobs, spare, sort_thread};
  const auto check_sorter = [&] {
    if (sorter.failed.load()) {
      jobs.close();
      sort_thread.join();
      std::rethrow_exception(sorter.error);
    }
  };

  // ---- bin stage: generate, route, exchange, stage ----
  const std::uint64_t total_edges = params.num_edges();
  const auto Pu = static_cast<std::uint64_t>(P);
  const auto ru = static_cast<std::uint64_t>(r);
  const std::uint64_t slice_begin = total_edges * ru / Pu;
  const std::uint64_t slice_end = total_edges * (ru + 1) / Pu;
  const std::uint64_t chunk = std::max<std::uint64_t>(1, opts.chunk_edges);
  const std::uint64_t rounds = comm.allreduce_max(
      (slice_end - slice_begin + chunk - 1) / chunk);

  // Both run buffers are charged once for the whole bin stage, so the peak
  // does not depend on whether the sorter has finished the previous run.
  // So is the sort thread's seen set: its first table up front, its growth
  // one run late, when the buffer of the run that grew it comes back at the
  // next spill, or at the join.  Until then the held bytes exceed the
  // charge by that growth, at most 48 B per distinct destination of the
  // run's largest row (the table doubles when half full, 12 B a slot).
  std::vector<std::string> run_paths;
  std::vector<RunEdge> staging;
  GrowthCharge sort_seen(budget);
  budget.acquire(2 * run_bytes);
  sort_seen.update(graph::SeenSet::kInitialBytes);
  staging.reserve(run_capacity);
  {
    SortJob second;
    second.edges.reserve(run_capacity);
    spare.push(std::move(second));
  }
  const auto spill = [&] {
    if (staging.empty()) return;
    SortJob job{std::move(staging),
                tmp_name(scratch, r, "run", run_paths.size())};
    run_paths.push_back(job.path);
    jobs.push(std::move(job));
    if (!spare.pop(job)) fail("sort thread stopped early");
    sort_seen.update(job.seen_bytes);
    staging = std::move(job.edges);
  };

  // One outbox per owner, kept across rounds; their capacity is charged as
  // it grows and held until the bin stage ends.
  std::vector<std::vector<graph::WireEdge>> outbox(
      static_cast<std::size_t>(P));
  GrowthCharge outbox_charge(budget);

  StageStats bin;
  util::Timer bin_timer;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    check_sorter();
    const std::uint64_t b = std::min(slice_end, slice_begin + round * chunk);
    const std::uint64_t e = std::min(slice_end, b + chunk);

    const std::uint64_t gen_charge = (e - b) * sizeof(graph::Edge);
    budget.acquire(gen_charge);
    const std::vector<graph::Edge> gen = graph::kronecker_slice(params, b, e);

    // Both directions of every tuple, routed to the direction's source
    // owner — the same cleaning rules as graph::build_distributed.
    for (auto& box : outbox) box.clear();
    for (const auto& ed : gen) {
      if (ed.src == ed.dst) continue;
      if (ed.src >= n || ed.dst >= n) {
        fail("generator emitted endpoint >= num_vertices");
      }
      outbox[static_cast<std::size_t>(part.owner(ed.src))].push_back(
          graph::WireEdge{ed.src, ed.dst, ed.weight});
      outbox[static_cast<std::size_t>(part.owner(ed.dst))].push_back(
          graph::WireEdge{ed.dst, ed.src, ed.weight});
    }
    std::uint64_t outbox_bytes = 0;
    for (const auto& box : outbox) {
      outbox_bytes += box.capacity() * sizeof(graph::WireEdge);
    }
    outbox_charge.update(outbox_bytes);
    const std::vector<graph::WireEdge> mine = comm.alltoallv(outbox);
    const std::uint64_t recv_charge = mine.size() * sizeof(graph::WireEdge);
    budget.acquire(recv_charge);

    for (const auto& we : mine) {
      if (staging.size() == run_capacity) spill();
      staging.push_back(RunEdge{we.dst,
                                static_cast<std::uint32_t>(we.src - my_begin),
                                we.weight});
    }
    budget.release(gen_charge + recv_charge);
    bin.edges += mine.size();
    bin.bytes += mine.size() * sizeof(RunEdge);
  }
  spill();
  jobs.close();
  sort_thread.join();
  sort_seen.update(sorter.seen_bytes);
  spare.clear();
  staging = {};
  outbox = {};
  budget.release(2 * run_bytes + outbox_charge.charged() +
                 sort_seen.charged());
  if (sorter.failed.load()) std::rethrow_exception(sorter.error);
  bin.seconds = bin_timer.seconds();
  StageStats sort_stats{sorter.edges, sorter.bytes, sorter.seconds};

  // ---- pack stage: merge runs in row order, dedup, write shard ----
  // The merge yields each row in (w, dst) order, the shard's, so every
  // record it keeps goes straight out.  dst streams into the shard: its
  // section starts where num_local puts it.  w's section starts after the
  // last dst, so w waits in a temporary until the edge count is known.
  StageStats pack;
  util::Timer pack_timer;
  const std::size_t read_items = 1024;  // 16 KiB per open run
  const std::size_t csr_block = 256;    // 3 KiB for the CSR sections

  std::vector<std::uint64_t> offsets(num_local + 1, 0);
  budget.acquire(offsets.size() * sizeof(std::uint64_t));
  graph::ShardWriter::Meta meta;
  meta.rank = r;
  meta.num_ranks = P;
  meta.num_vertices = n;
  meta.num_local = num_local;
  meta.num_input_edges = total_edges;
  const std::string shard_file = graph::shard_path(shard_dir, r, P);
  graph::ShardWriter writer(shard_file, meta);
  TempWriter w_tmp(tmp_name(scratch, r, "w", 0));

  std::uint64_t num_edges = 0;
  {
    BlockWriter<VertexId> dst_out(
        csr_block, budget,
        [&](std::span<const VertexId> s) { writer.append_dst(s); });
    BlockWriter<Weight> w_out(csr_block, budget,
                              [&](std::span<const Weight> s) {
                                w_tmp.append(s.data(), s.size());
                              });
    std::vector<std::unique_ptr<RunReader<RunEdge>>> readers;
    readers.reserve(run_paths.size());
    for (const auto& path : run_paths) {
      readers.push_back(
          std::make_unique<RunReader<RunEdge>>(path, read_items, budget));
    }
    LoserTree<RunEdge, decltype(merge_less)> merger(std::move(readers),
                                                    merge_less);

    // The row's kept destinations, charged by the insert that grows the
    // set; one row's distinct destinations must fit the budget.
    graph::SeenSet seen;
    GrowthCharge seen_charge(budget);
    seen_charge.update(seen.bytes());
    std::uint32_t row = 0;
    for (bool first = true; !merger.empty(); merger.advance()) {
      const RunEdge& e = merger.head();
      if (first || e.src != row) {
        if (!first) offsets[row + 1] = num_edges;
        first = false;
        row = e.src;
        seen.next_row();
      }
      if (seen.insert(e.dst)) {
        seen_charge.update(seen.bytes());
        dst_out.push(e.dst);
        w_out.push(e.w);
        ++num_edges;
      }
    }
    if (num_edges > 0) offsets[row + 1] = num_edges;
    dst_out.flush();
    w_out.flush();
    budget.release(seen_charge.charged());
    // offsets[] holds per-vertex end positions where vertices have edges;
    // fill the gaps so it is the standard monotone prefix array.
    for (std::size_t i = 1; i < offsets.size(); ++i) {
      offsets[i] = std::max(offsets[i], offsets[i - 1]);
    }
  }
  w_tmp.close();
  for (const auto& path : run_paths) fs::remove(path);

  stream_section<Weight>(
      w_tmp.path(), budget, read_items,
      [&](std::span<const Weight> s) { writer.append_w(s); });
  writer.finish(offsets);
  fs::remove(w_tmp.path());
  budget.release(offsets.size() * sizeof(std::uint64_t));
  pack.edges = num_edges;
  pack.bytes = fs::file_size(shard_file);
  pack.seconds = pack_timer.seconds();

  // ---- reduce stats so every rank reports the machine-wide picture ----
  BuildPipelineStats stats;
  stats.bin = StageStats{comm.allreduce_sum(bin.edges),
                         comm.allreduce_sum(bin.bytes),
                         comm.allreduce_max(bin.seconds)};
  stats.sort = StageStats{comm.allreduce_sum(sort_stats.edges),
                          comm.allreduce_sum(sort_stats.bytes),
                          comm.allreduce_max(sort_stats.seconds)};
  stats.pack = StageStats{comm.allreduce_sum(pack.edges),
                          comm.allreduce_sum(pack.bytes),
                          comm.allreduce_max(pack.seconds)};
  stats.runs_spilled = comm.allreduce_sum<std::uint64_t>(run_paths.size());
  stats.spilled_bytes = comm.allreduce_sum(sorter.bytes);
  stats.shard_bytes = comm.allreduce_sum(pack.bytes);
  stats.peak_resident_bytes = comm.allreduce_max(budget.peak());
  stats.budget_bytes = opts.resident_budget_bytes;
  stats.total_seconds = comm.allreduce_max(total_timer.seconds());
  return stats;
}

}  // namespace g500::ooc
