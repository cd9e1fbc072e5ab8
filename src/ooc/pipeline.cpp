#include "ooc/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <queue>
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
using graph::LocalId;
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

/// Run order (src, dst, w): the merge key of the dedup pass.  Matches the
/// in-memory builder's sort, so keep-first == keep-minimum-weight.  A run
/// is radix-sorted by run_key with run_less breaking the ties.
constexpr auto run_less = [](const RunEdge& a, const RunEdge& b) {
  if (a.src != b.src) return a.src < b.src;
  if (a.dst != b.dst) return a.dst < b.dst;
  return a.w < b.w;
};
constexpr auto run_key = [](const RunEdge& e) { return e.src; };

/// The same edge keyed by its global neighbour — the pull-index record.
struct PullEntry {
  std::uint64_t src;  // global neighbour id
  std::uint32_t dst;  // local index
  float w;
};
static_assert(sizeof(PullEntry) == 16);

/// Pull order (src, w, dst): exactly PullIndex::from_csr's sort, and like
/// it radix-sorted by source.
constexpr auto pull_less = [](const PullEntry& a, const PullEntry& b) {
  if (a.src != b.src) return a.src < b.src;
  if (a.w != b.w) return a.w < b.w;
  return a.dst < b.dst;
};
constexpr auto pull_key = [](const PullEntry& e) { return e.src; };

/// Charges every pipeline allocation against the per-rank budget.  The
/// pipeline throws the moment it would exceed the cap — out-of-core means
/// bounded memory by construction, not by hope.
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

/// Charge a vector's capacity growth against the budget (tracked via the
/// caller's `charged` running total; release `charged` when done).
template <typename V>
void charge_growth(Budget& budget, const V& v, std::uint64_t& charged) {
  const std::uint64_t now = v.capacity() * sizeof(typename V::value_type);
  if (now > charged) {
    budget.acquire(now - charged);
    charged = now;
  }
}

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

/// Byte-counting buffered writer for run files and section temporaries.
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

/// A section temporary written one record at a time.  Records are staged
/// in a fixed block, charged to the budget as a RunReader's buffer is, so
/// the stream sees one write per block instead of one per record.
template <typename T>
class SectionWriter {
 public:
  SectionWriter(std::string path, std::size_t block_items, Budget& budget)
      : out_(std::move(path)), budget_(budget), cap_(block_items) {
    budget_.acquire(cap_ * sizeof(T));
    block_.reserve(cap_);
  }
  ~SectionWriter() { budget_.release(cap_ * sizeof(T)); }
  SectionWriter(const SectionWriter&) = delete;
  SectionWriter& operator=(const SectionWriter&) = delete;

  void push(const T& x) {
    block_.push_back(x);
    if (block_.size() == cap_) flush();
  }
  /// Write the last block and close the file.
  void close() {
    flush();
    out_.close();
  }
  [[nodiscard]] const std::string& path() const noexcept {
    return out_.path();
  }

 private:
  void flush() {
    out_.append(block_.data(), block_.size());
    block_.clear();
  }

  TempWriter out_;
  Budget& budget_;
  std::size_t cap_;
  std::vector<T> block_;
};

/// K-way merge over sorted run files: a binary min-heap of reader indices.
template <typename T, typename Less>
class RunMerger {
 public:
  RunMerger(std::vector<std::unique_ptr<RunReader<T>>> readers, Less less)
      : readers_(std::move(readers)), less_(std::move(less)) {
    for (std::size_t i = 0; i < readers_.size(); ++i) {
      if (!readers_[i]->empty()) heap_.push_back(i);
    }
    const auto cmp = [this](std::size_t a, std::size_t b) {
      return less_(readers_[b]->head(), readers_[a]->head());  // min-heap
    };
    std::make_heap(heap_.begin(), heap_.end(), cmp);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] const T& head() const {
    return readers_[heap_.front()]->head();
  }
  void advance() {
    const auto cmp = [this](std::size_t a, std::size_t b) {
      return less_(readers_[b]->head(), readers_[a]->head());
    };
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    const std::size_t i = heap_.back();
    readers_[i]->advance();
    if (readers_[i]->empty()) {
      heap_.pop_back();
    } else {
      std::push_heap(heap_.begin(), heap_.end(), cmp);
    }
  }

 private:
  std::vector<std::unique_ptr<RunReader<T>>> readers_;
  Less less_;
  std::vector<std::size_t> heap_;
};

std::string tmp_name(const std::string& dir, int rank, const char* kind,
                     std::size_t index) {
  return dir + "/ooc_r" + std::to_string(rank) + "_" + kind + "_" +
         std::to_string(index) + ".tmp";
}

/// Stream a section temporary into the shard writer in bounded chunks.
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
                                           const PipelineOptions& opts,
                                           const graph::BuildOptions& build_opts) {
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

  // Staging and one in-flight sort job are the two big holders; with queue
  // depth 1 at most three run buffers coexist, so a sixth of the budget
  // each leaves half for chunk exchange and the pack-phase buffers.  A
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
  struct SortJob {
    std::vector<RunEdge> edges;
    std::string path;
  };
  struct SorterState {
    double seconds = 0.0;
    std::uint64_t edges = 0;
    std::uint64_t bytes = 0;
    std::exception_ptr error;  // written before `failed`, read after
    std::atomic<bool> failed{false};
  };
  SorterState sorter;
  BoundedQueue<SortJob> jobs(1);
  std::thread sort_thread([&] {
    SortJob job;
    while (jobs.pop(job)) {
      try {
        util::Timer timer;
        auto& edges = job.edges;
        util::radix_sort(edges.begin(), edges.end(), run_key, run_less);
        // Within-run dedup: first of each (src, dst) is its run minimum;
        // the cross-run merge applies the same rule globally.
        edges.erase(std::unique(edges.begin(), edges.end(),
                                [](const RunEdge& a, const RunEdge& b) {
                                  return a.src == b.src && a.dst == b.dst;
                                }),
                    edges.end());
        TempWriter out(job.path);
        out.append(edges.data(), edges.size());
        out.close();
        sorter.seconds += timer.seconds();
        sorter.edges += edges.size();
        sorter.bytes += out.bytes();
        edges.clear();
        edges.shrink_to_fit();
      } catch (...) {
        sorter.error = std::current_exception();
        sorter.failed.store(true);
      }
    }
  });
  // If anything below throws (budget overflow, I/O failure), the queue must
  // close and the worker join before `sort_thread` unwinds, or std::thread's
  // destructor would terminate the process.
  struct JoinGuard {
    BoundedQueue<SortJob>& queue;
    std::thread& worker;
    ~JoinGuard() {
      queue.close();
      if (worker.joinable()) worker.join();
    }
  } join_guard{jobs, sort_thread};
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

  // The three run buffers a depth-1 queue allows (staging, queued,
  // sorting) are charged once for the whole bin stage, so the peak does not
  // depend on whether the sorter has finished the previous run.
  std::vector<std::string> run_paths;
  std::vector<RunEdge> staging;
  budget.acquire(3 * run_bytes);
  staging.reserve(run_capacity);
  const auto spill = [&] {
    if (staging.empty()) return;
    SortJob job{std::move(staging), tmp_name(scratch, r, "run",
                                             run_paths.size())};
    run_paths.push_back(job.path);
    staging = {};
    staging.reserve(run_capacity);
    jobs.push(std::move(job));
  };

  StageStats bin;
  util::Timer bin_timer;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    check_sorter();
    const std::uint64_t b = std::min(slice_end, slice_begin + round * chunk);
    const std::uint64_t e = std::min(slice_end, b + chunk);

    std::uint64_t chunk_charge = (e - b) * sizeof(graph::Edge);
    budget.acquire(chunk_charge);
    const std::vector<graph::Edge> gen = graph::kronecker_slice(params, b, e);

    // Both directions of every tuple, routed to the direction's source
    // owner — the same cleaning rules as graph::build_distributed.
    budget.acquire(2 * gen.size() * sizeof(graph::WireEdge));
    chunk_charge += 2 * gen.size() * sizeof(graph::WireEdge);
    std::vector<std::vector<graph::WireEdge>> outbox(
        static_cast<std::size_t>(P));
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
    const std::vector<graph::WireEdge> mine = comm.alltoallv(outbox);
    const std::uint64_t recv_charge = mine.size() * sizeof(graph::WireEdge);
    budget.acquire(recv_charge);
    outbox.clear();

    for (const auto& we : mine) {
      if (staging.size() == run_capacity) spill();
      staging.push_back(RunEdge{we.dst,
                                static_cast<std::uint32_t>(we.src - my_begin),
                                we.weight});
    }
    budget.release(chunk_charge + recv_charge);
    bin.edges += mine.size();
    bin.bytes += mine.size() * sizeof(RunEdge);
  }
  spill();
  jobs.close();
  sort_thread.join();
  budget.release(3 * run_bytes);
  staging = {};
  if (sorter.failed.load()) std::rethrow_exception(sorter.error);
  bin.seconds = bin_timer.seconds();
  StageStats sort_stats{sorter.edges, sorter.bytes, sorter.seconds};

  // ---- pack stage: merge runs, dedup, re-sort per vertex, write shard ----
  StageStats pack;
  util::Timer pack_timer;
  const bool has_pull = build_opts.build_pull_index;
  const std::size_t read_items = 1024;  // 16 KiB per open run
  const std::size_t csr_block = 256;    // 3 KiB for the CSR sections
  const std::size_t pull_block = 1024;  // 8 KiB for the pull sections

  std::vector<std::uint64_t> offsets(num_local + 1, 0);
  budget.acquire(offsets.size() * sizeof(std::uint64_t));
  SectionWriter<VertexId> dst_tmp(tmp_name(scratch, r, "dst", 0), csr_block,
                                  budget);
  SectionWriter<Weight> w_tmp(tmp_name(scratch, r, "w", 0), csr_block,
                              budget);

  std::vector<std::string> pull_run_paths;
  std::vector<PullEntry> pull_stage;
  std::uint64_t pull_spilled_bytes = 0;
  if (has_pull) {
    budget.acquire(run_bytes);
    pull_stage.reserve(run_capacity);
  }
  const auto spill_pull = [&] {
    if (pull_stage.empty()) return;
    util::radix_sort(pull_stage.begin(), pull_stage.end(), pull_key,
                     pull_less);
    TempWriter out(tmp_name(scratch, r, "pullrun", pull_run_paths.size()));
    out.append(pull_stage.data(), pull_stage.size());
    out.close();
    pull_spilled_bytes += out.bytes();
    pull_run_paths.push_back(out.path());
    pull_stage.clear();
  };

  std::uint64_t num_edges = 0;
  {
    std::vector<std::unique_ptr<RunReader<RunEdge>>> readers;
    readers.reserve(run_paths.size());
    for (const auto& path : run_paths) {
      readers.push_back(
          std::make_unique<RunReader<RunEdge>>(path, read_items, budget));
    }
    RunMerger<RunEdge, decltype(run_less)> merger(
        std::move(readers), run_less);

    // Current vertex's adjacency, re-sorted (w, dst) before flushing — the
    // LocalCsr invariant.  Charged as it grows; a single vertex's degree
    // must fit the budget (true at any scale we materialize per rank).
    std::vector<std::pair<Weight, VertexId>> group;
    std::uint64_t group_charged = 0;
    std::uint32_t group_src = 0;
    const auto flush_group = [&] {
      if (group.empty()) return;
      std::sort(group.begin(), group.end());
      for (const auto& [w, dst] : group) {
        dst_tmp.push(dst);
        w_tmp.push(w);
      }
      offsets[group_src + 1] = num_edges;
      group.clear();
    };

    bool have_prev = false;
    RunEdge prev{};
    while (!merger.empty()) {
      const RunEdge head = merger.head();
      merger.advance();
      if (have_prev && head.src == prev.src && head.dst == prev.dst) {
        continue;  // duplicate (src, dst): first instance carried min weight
      }
      if (have_prev && head.src != prev.src) flush_group();
      prev = head;
      have_prev = true;
      group_src = head.src;
      group.push_back({head.w, head.dst});
      charge_growth(budget, group, group_charged);
      ++num_edges;
      if (has_pull) {
        if (pull_stage.size() == run_capacity) spill_pull();
        pull_stage.push_back(PullEntry{head.dst, head.src, head.w});
      }
    }
    flush_group();
    budget.release(group_charged);
    // offsets[] holds per-vertex end positions where vertices have edges;
    // fill the gaps so it is the standard monotone prefix array.
    for (std::size_t i = 1; i < offsets.size(); ++i) {
      offsets[i] = std::max(offsets[i], offsets[i - 1]);
    }
  }
  dst_tmp.close();
  w_tmp.close();
  for (const auto& path : run_paths) fs::remove(path);

  // Pull sections: merge the pull runs into (sources, offsets) in memory
  // (distinct neighbours, vertex-bounded) plus streamed dst/w temps.
  std::vector<VertexId> pull_sources;
  std::vector<std::uint64_t> pull_offsets;
  std::uint64_t pull_sources_charged = 0;
  std::uint64_t pull_offsets_charged = 0;
  SectionWriter<LocalId> pull_dst_tmp(tmp_name(scratch, r, "pulldst", 0),
                                      pull_block, budget);
  SectionWriter<Weight> pull_w_tmp(tmp_name(scratch, r, "pullw", 0),
                                   pull_block, budget);
  std::uint64_t num_pull_entries = 0;
  if (has_pull) {
    spill_pull();
    pull_stage = {};
    budget.release(run_bytes);
    std::vector<std::unique_ptr<RunReader<PullEntry>>> readers;
    readers.reserve(pull_run_paths.size());
    for (const auto& path : pull_run_paths) {
      readers.push_back(
          std::make_unique<RunReader<PullEntry>>(path, read_items, budget));
    }
    RunMerger<PullEntry, decltype(pull_less)> merger(
        std::move(readers), pull_less);
    while (!merger.empty()) {
      const PullEntry head = merger.head();
      merger.advance();
      if (pull_sources.empty() || pull_sources.back() != head.src) {
        pull_sources.push_back(head.src);
        pull_offsets.push_back(num_pull_entries);
        charge_growth(budget, pull_sources, pull_sources_charged);
        charge_growth(budget, pull_offsets, pull_offsets_charged);
      }
      pull_dst_tmp.push(head.dst);
      pull_w_tmp.push(head.w);
      ++num_pull_entries;
    }
    pull_offsets.push_back(num_pull_entries);
  }
  pull_dst_tmp.close();
  pull_w_tmp.close();
  for (const auto& path : pull_run_paths) fs::remove(path);

  // Assemble the shard from the section temporaries.
  graph::ShardWriter::Meta meta;
  meta.rank = r;
  meta.num_ranks = P;
  meta.num_vertices = n;
  meta.num_local = num_local;
  meta.num_input_edges = total_edges;
  meta.num_edges = num_edges;
  meta.num_pull_sources = pull_sources.size();
  meta.num_pull_entries = num_pull_entries;
  meta.has_pull = has_pull;
  const std::string shard_file = graph::shard_path(shard_dir, r, P);
  {
    graph::ShardWriter writer(shard_file, meta);
    writer.append_offsets(offsets);
    stream_section<VertexId>(dst_tmp.path(), budget, read_items,
                             [&](std::span<const VertexId> s) {
                               writer.append_dst(s);
                             });
    stream_section<Weight>(w_tmp.path(), budget, read_items,
                           [&](std::span<const Weight> s) {
                             writer.append_w(s);
                           });
    if (has_pull) {
      writer.append_pull_sources(pull_sources);
      writer.append_pull_offsets(pull_offsets);
      stream_section<LocalId>(pull_dst_tmp.path(), budget, read_items,
                              [&](std::span<const LocalId> s) {
                                writer.append_pull_dst(s);
                              });
      stream_section<Weight>(pull_w_tmp.path(), budget, read_items,
                             [&](std::span<const Weight> s) {
                               writer.append_pull_w(s);
                             });
    }
    writer.finish();
  }
  fs::remove(dst_tmp.path());
  fs::remove(w_tmp.path());
  fs::remove(pull_dst_tmp.path());
  fs::remove(pull_w_tmp.path());
  budget.release(offsets.size() * sizeof(std::uint64_t));
  budget.release(pull_sources_charged + pull_offsets_charged);
  pack.edges = num_edges + num_pull_entries;
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
  stats.runs_spilled = comm.allreduce_sum<std::uint64_t>(
      run_paths.size() + pull_run_paths.size());
  stats.spilled_bytes =
      comm.allreduce_sum(sorter.bytes + pull_spilled_bytes);
  stats.shard_bytes = comm.allreduce_sum(pack.bytes);
  stats.peak_resident_bytes = comm.allreduce_max(budget.peak());
  stats.budget_bytes = opts.resident_budget_bytes;
  stats.total_seconds = comm.allreduce_max(total_timer.seconds());
  return stats;
}

}  // namespace g500::ooc
